package experiments

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"beesim/internal/deployment"
	"beesim/internal/report"
	"beesim/internal/timeseries"
)

// Artifact is one table or figure of the paper's evaluation, as the
// reproduction CLI prints it.
type Artifact struct {
	ID    string
	Title string
	// Run regenerates the artifact at the paper's inputs, fanning its
	// parallel stages across workers (0 = process default). The output
	// bytes are identical for every worker count.
	Run func(workers int) (Output, error)
}

// Output is one rendered artifact: the text the CLI prints, the series
// CSV (nil where the artifact has none) and, for the sweep figures, the
// SVG chart.
type Output struct {
	Text []byte
	CSV  func(io.Writer) error
	SVG  func(io.Writer) error
}

// campaignRoutines is the size of the paper's Section IV campaign.
const campaignRoutines = 319

// Artifacts lists the paper's artifacts in reproduction order.
func Artifacts() []Artifact {
	figure8 := func(id string, v LossVariant) Artifact {
		return sweepFigure(id, "Figure 8: "+v.String(), func() (SweepConfig, error) { return Figure8Config(v) }, nil)
	}
	return []Artifact{
		{"T1", "Table I: per-task energy of the edge scenarios", func(int) (Output, error) {
			return tablesReport("TABLE I: edge scenarios", TableI)
		}},
		{"T2", "Table II: per-task energy of the edge+cloud scenarios", func(int) (Output, error) {
			return tablesReport("TABLE II: edge+cloud scenarios", TableII)
		}},
		{"F2", "Figure 2: a week of one deployed hive", func(int) (Output, error) {
			return TraceReport(deployment.DefaultConfig())
		}},
		{"F3", "Figure 3: average consumed power vs wake-up period", func(int) (Output, error) {
			return figure3Report()
		}},
		{"S4", "Section IV: the 319-routine measurement campaign", func(workers int) (Output, error) {
			return CampaignReport(campaignRoutines, workers)
		}},
		{"F5", "Figure 5: CNN accuracy and edge energy vs input size", func(int) (Output, error) {
			return figure5Report(DefaultFigure5())
		}},
		sweepFigure("F6", "Figure 6 (10-400 clients, cap 10, no loss)", Figure6Config, nil),
		sweepFigure("F7", "Figure 7 (100-2000 clients, cap 35, no loss)",
			func() (SweepConfig, error) { return Figure7Config(35) }, milestones),
		figure8("F8A", LossA),
		figure8("F8B", LossB),
		figure8("F8C", LossC),
		figure8("F8", LossAll),
		sweepFigure("F9", "Figure 9 (100-2000 clients, cap 35, losses A+B+C)", Figure9Config, nil),
		{"AV", "Availability sweep: the crossover as the uplink degrades", func(workers int) (Output, error) {
			cfg, err := DefaultAvailabilityConfig()
			if err != nil {
				return Output{}, err
			}
			cfg.Workers = workers
			_, out, err := AvailabilityReport(cfg, nil, nil)
			return out, err
		}},
	}
}

// sweepFigure is the artifact of one client-range sweep figure; title
// doubles as the chart title, and notes, when set, appends to the text.
func sweepFigure(id, title string, config func() (SweepConfig, error), notes func(*bytes.Buffer, []SweepPoint)) Artifact {
	return Artifact{id, title, func(workers int) (Output, error) {
		cfg, err := config()
		if err != nil {
			return Output{}, err
		}
		cfg.Workers = workers
		pts, out, err := SweepReport(title, cfg)
		if err != nil || notes == nil {
			return out, err
		}
		b := bytes.NewBuffer(out.Text)
		notes(b, pts)
		out.Text = b.Bytes()
		return out, nil
	}}
}

// milestones prints Figure 7's headline numbers beside the paper's.
func milestones(b *bytes.Buffer, pts []SweepPoint) {
	m := MilestonesOf(pts)
	fmt.Fprintf(b, "\nmilestones:\n")
	fmt.Fprintf(b, "  first crossover:   %5d clients (paper, cap 35: 406)\n", m.FirstCrossover)
	fmt.Fprintf(b, "  peak advantage:    %5.1f J/client at %d clients (paper: 12.5 J at 630)\n",
		float64(m.PeakAdvantage), m.PeakClients)
	fmt.Fprintf(b, "  permanent win from %5d clients (paper: 803)\n", m.PermanentFrom)
}

// tablesReport renders Table I or II: a heading, then each scenario's
// task breakdown in the paper's layout.
func tablesReport(heading string, build func() ([]ScenarioTable, error)) (Output, error) {
	scenarios, err := build()
	if err != nil {
		return Output{}, err
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s\n\n", heading)
	for _, s := range scenarios {
		if err := renderScenario(s).Render(&b); err != nil {
			return Output{}, err
		}
		b.WriteString("\n")
	}
	return Output{Text: b.Bytes()}, nil
}

// figure3Report renders Figure 3 as a table and a text chart (x in
// minutes).
func figure3Report() (Output, error) {
	pts := Figure3()
	t := report.NewTable("Figure 3: average consumed power vs wake-up period",
		"Period (min)", "Average power (W)")
	x := make([]float64, len(pts))
	y := make([]float64, len(pts))
	for i, p := range pts {
		t.MustAddRow(fmt.Sprintf("%.0f", p.Period.Minutes()),
			fmt.Sprintf("%.3f", float64(p.AvgPower)))
		x[i], y[i] = p.Period.Minutes(), float64(p.AvgPower)
	}
	series, err := report.NewSeries("average power (W)", x, y)
	if err != nil {
		return Output{}, err
	}
	var b bytes.Buffer
	if err := t.Render(&b); err != nil {
		return Output{}, err
	}
	b.WriteString("\n")
	chart := report.NewChart("", "wake-up period (min)", "average power (W)")
	chart.Add(series)
	if err := chart.Render(&b); err != nil {
		return Output{}, err
	}
	return Output{Text: b.Bytes()}, nil
}

// CampaignReport replays an n-routine measurement campaign across
// workers and renders its statistics beside the paper's.
func CampaignReport(n, workers int) (Output, error) {
	st, err := RoutineStatsWorkers(n, workers)
	if err != nil {
		return Output{}, err
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "Section IV measurement campaign (%d routines)\n\n", st.Routines)
	fmt.Fprintf(&b, "  mean routine duration: %6.1f s   (paper: 89 s)\n", st.MeanDuration.Seconds())
	fmt.Fprintf(&b, "  duration sigma:        %6.1f s   (paper: 3.5 s)\n", st.SDDuration.Seconds())
	fmt.Fprintf(&b, "  mean routine power:    %6.3f W   (paper: 2.14 W)\n", float64(st.MeanPower))
	fmt.Fprintf(&b, "  power sigma:           %6.3f W   (paper: 0.009 W)\n", float64(st.SDPower))
	fmt.Fprintf(&b, "  mean routine energy:   %6.1f J   (paper: 190.1 J)\n", float64(st.MeanEnergy))
	return Output{Text: b.Bytes()}, nil
}

// TraceReport runs the deployed-hive simulation and renders its summary
// and its series CSV (recorder and panel power, battery charge, inside
// and outside climate).
func TraceReport(cfg deployment.Config) (Output, error) {
	tr, err := deployment.Run(cfg)
	if err != nil {
		return Output{}, err
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "hive trace: %s, %d day(s), wake every %v\n\n", cfg.Location.Name, cfg.Days, cfg.WakePeriod)
	fmt.Fprintf(&b, "  completed routines:   %6d\n", tr.Wakeups)
	fmt.Fprintf(&b, "  missed wake-ups:      %6d (system down)\n", tr.MissedWakeups)
	fmt.Fprintf(&b, "  outages:              %6d\n", tr.Outages)
	fmt.Fprintf(&b, "  recorder energy:      %v\n", tr.RecorderEnergy)
	fmt.Fprintf(&b, "  monitor energy:       %v\n", tr.MonitorEnergy)
	fmt.Fprintf(&b, "  harvested energy:     %v\n", tr.HarvestedEnergy)

	if cfg.Faults != nil {
		fmt.Fprintf(&b, "\n  faults (plan seed %d):\n", cfg.Faults.Seed)
		fmt.Fprintf(&b, "    upload retries:     %6d (%v radio energy)\n", tr.UploadRetries, tr.RetryEnergy)
		fmt.Fprintf(&b, "    failed uploads:     %6d\n", tr.FailedUploads)
		fmt.Fprintf(&b, "    flushed from queue: %6d\n", tr.FlushedUploads)
		fmt.Fprintf(&b, "    still buffered:     %6d\n", tr.BufferedUploads)
		fmt.Fprintf(&b, "    dropped uploads:    %6d\n", tr.DroppedUploads)
		fmt.Fprintf(&b, "    sensor dropouts:    %6d\n", tr.SensorDropouts)
		fmt.Fprintf(&b, "    battery brownouts:  %6d\n", tr.Brownouts)
	}

	if gaps := tr.RecorderPower.Gaps(2 * time.Hour); len(gaps) > 0 {
		fmt.Fprintf(&b, "\n  night gaps (recorder down > 2 h):\n")
		for _, g := range gaps {
			fmt.Fprintf(&b, "    %s -> %s (%v)\n",
				g.Start.Format("Jan 02 15:04"), g.End.Format("Jan 02 15:04"),
				g.End.Sub(g.Start).Round(time.Minute))
		}
	}

	if st, en := tr.InsideTemp.Span(); !st.IsZero() {
		var sum float64
		for _, p := range tr.InsideTemp.Points() {
			sum += p.V
		}
		fmt.Fprintf(&b, "\n  inside temperature: mean %.1f C over %s..%s\n",
			sum/float64(tr.InsideTemp.Len()),
			st.Format("Jan 02"), en.Format("Jan 02"))
	}
	return Output{Text: b.Bytes(), CSV: func(w io.Writer) error {
		return timeseries.WriteCSV(w, tr.RecorderPower, tr.PanelPower, tr.BatterySoC,
			tr.InsideTemp, tr.InsideHumidity, tr.OutsideTemp, tr.OutsideHumidity)
	}}, nil
}

// figure5Report trains the Figure 5 CNNs and renders the accuracy and
// edge-cost table and series.
func figure5Report(cfg Figure5Config) (Output, error) {
	var b bytes.Buffer
	fmt.Fprintf(&b, "Figure 5 sweep: sizes %v, corpus %d (training %d CNNs; this takes a while)\n\n",
		cfg.Sizes, cfg.CorpusSize, len(cfg.Sizes))
	pts, err := Figure5(cfg)
	if err != nil {
		return Output{}, err
	}
	t := report.NewTable("Figure 5: accuracy and edge inference energy vs input size",
		"Input", "Accuracy", "Edge energy (J)", "Edge time (s)", "MFLOPs")
	for _, p := range pts {
		t.MustAddRow(
			fmt.Sprintf("%dx%d", p.Size, p.Size),
			fmt.Sprintf("%.1f%%", 100*p.Accuracy),
			fmt.Sprintf("%.1f", float64(p.EdgeEnergy)),
			fmt.Sprintf("%.1f", p.EdgeSeconds),
			fmt.Sprintf("%.1f", p.FLOPs/1e6))
	}
	if err := t.Render(&b); err != nil {
		return Output{}, err
	}
	acc, energy, err := figure5Series(pts)
	if err != nil {
		return Output{}, err
	}
	return Output{Text: b.Bytes(), CSV: func(w io.Writer) error {
		return report.WriteSeriesCSV(w, "input size", acc, energy)
	}}, nil
}

// SweepReport runs a client-range sweep and renders it: a text chart of
// both scenarios' per-client energy, milestone rows at the sweep's
// quartiles and the crossover fleet sizes, plus the series CSV
// (per-client energies and server count) and the SVG chart.
func SweepReport(title string, cfg SweepConfig) ([]SweepPoint, Output, error) {
	pts, err := Sweep(cfg)
	if err != nil {
		return nil, Output{}, err
	}
	edge, cloud, servers, err := SweepSeries(pts)
	if err != nil {
		return nil, Output{}, err
	}
	var b bytes.Buffer
	chart := report.NewChart(title, "clients", "J/client/cycle")
	chart.Add(edge)
	chart.Add(cloud)
	if err := chart.Render(&b); err != nil {
		return nil, Output{}, err
	}

	t := report.NewTable("", "Clients", "Edge J/client", "Edge+cloud J/client", "Servers", "Winner")
	for _, i := range []int{0, len(pts) / 4, len(pts) / 2, 3 * len(pts) / 4, len(pts) - 1} {
		p := pts[i]
		winner := "edge"
		if p.Diff() > 0 {
			winner = "edge+cloud"
		}
		t.MustAddRow(
			fmt.Sprintf("%d", p.Clients),
			fmt.Sprintf("%.1f", float64(p.EdgeOnly.PerClient())),
			fmt.Sprintf("%.1f", float64(p.EdgeCloud.PerClient())),
			fmt.Sprintf("%d", p.EdgeCloud.Servers),
			winner)
	}
	b.WriteString("\n")
	if err := t.Render(&b); err != nil {
		return nil, Output{}, err
	}

	if xs, err := crossoverClients(pts); err == nil && len(xs) > 0 {
		b.WriteString("\ncrossovers at: ")
		for i, x := range xs {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%.0f", x)
		}
		b.WriteString(" clients\n")
	}
	return pts, Output{
		Text: b.Bytes(),
		CSV: func(w io.Writer) error {
			return report.WriteSeriesCSV(w, "clients", edge, cloud, servers)
		},
		SVG: func(w io.Writer) error {
			svg := report.NewSVGChart(title, "clients", "J/client/cycle")
			svg.Add(edge)
			svg.Add(cloud)
			return svg.Render(w)
		},
	}, nil
}

// AvailabilityReport runs the availability sweep and renders its table
// (one row per availability) and series CSV. extraCols name columns the
// caller appends to every row; extra computes them for one point.
func AvailabilityReport(cfg AvailabilityConfig, extraCols []string,
	extra func(AvailabilityPoint) ([]string, error)) ([]AvailabilityPoint, Output, error) {
	pts, err := AvailabilitySweep(cfg)
	if err != nil {
		return nil, Output{}, err
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "availability sweep: %d-%d clients, cap %d, %d attempts max\n\n",
		cfg.From, cfg.To, cfg.Server.MaxParallel, cfg.Retry.MaxAttempts)
	cols := append([]string{"Availability", "Delivery", "E[attempts]",
		"First crossover", "Edge J/client", "Edge+cloud J/client",
		"Upload p50", "Upload p99"}, extraCols...)
	t := report.NewTable("", cols...)
	for _, p := range pts {
		cross := "never"
		if p.FirstCrossover > 0 {
			cross = fmt.Sprintf("%d clients", p.FirstCrossover)
		}
		row := []string{
			fmt.Sprintf("%.2f", p.Availability),
			fmt.Sprintf("%.3f", p.DeliveryProb),
			fmt.Sprintf("%.2f", p.ExpectedAttempts),
			cross,
			fmt.Sprintf("%.1f", float64(p.EdgeJClient)),
			fmt.Sprintf("%.1f", float64(p.CloudJClient)),
			fmt.Sprintf("%.1fs", p.UploadP50S),
			fmt.Sprintf("%.1fs", p.UploadP99S),
		}
		if extra != nil {
			cells, err := extra(p)
			if err != nil {
				return nil, Output{}, err
			}
			row = append(row, cells...)
		}
		t.MustAddRow(row...)
	}
	if err := t.Render(&b); err != nil {
		return nil, Output{}, err
	}
	edge, cloud, crossover, delivered, uploadP50, uploadP99, err := AvailabilitySeries(pts)
	if err != nil {
		return nil, Output{}, err
	}
	return pts, Output{Text: b.Bytes(), CSV: func(w io.Writer) error {
		return report.WriteSeriesCSV(w, "availability",
			edge, cloud, crossover, delivered, uploadP50, uploadP99)
	}}, nil
}
