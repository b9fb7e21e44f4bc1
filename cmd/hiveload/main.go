// Command hiveload is the fleet-scale load tool for the hivenet stack:
// it derives a deterministic open-loop traffic schedule for N simulated
// hives from a LoadSpec, sizes the deployment against an SLO with a
// virtual-time capacity planner, and replays the same schedule at
// socket level against live servers for stress and soak testing.
//
// Usage:
//
//	hiveload plan -spec fleet.json -slo slo.json [-workers N]
//	              [-max-servers 64] [-seed S] [-csv knee.csv]
//	hiveload schedule -spec fleet.json [-workers N] [-n 0]
//	hiveload run -spec fleet.json (-addr host:port[,host:port...] | -local N)
//	             [-workers N] [-sleep-scale 0] [-stall-ms 0]
//
// plan and schedule are deterministic: same spec + seed = byte-identical
// stdout at any -workers. run talks to real servers, so its measured
// latencies are wall-clock; with -local N it boots N in-process hivenet
// shards first and reports their server-side stats after the replay.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"beesim/internal/hivenet"
	"beesim/internal/loadgen"
	"beesim/internal/obs"
	"beesim/internal/slo"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "plan":
		err = plan(os.Args[2:])
	case "schedule":
		err = schedule(os.Args[2:])
	case "run":
		err = run(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "hiveload: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hiveload:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  hiveload plan -spec fleet.json -slo slo.json [-workers N] [-max-servers 64] [-seed S] [-csv knee.csv]
  hiveload schedule -spec fleet.json [-workers N] [-n 0]
  hiveload run -spec fleet.json (-addr host:port[,...] | -local N) [-workers N] [-sleep-scale 0] [-stall-ms 0]`)
}

// loadSpec loads the -spec file with an optional seed override.
func loadSpec(path string, seed uint64, seedSet bool) (loadgen.LoadSpec, error) {
	if path == "" {
		return loadgen.LoadSpec{}, fmt.Errorf("-spec is required")
	}
	spec, err := loadgen.LoadFile(path)
	if err != nil {
		return loadgen.LoadSpec{}, err
	}
	if seedSet {
		spec.Seed = seed
	}
	return spec, nil
}

func plan(args []string) error {
	fs := flag.NewFlagSet("plan", flag.ExitOnError)
	specPath := fs.String("spec", "", "load spec JSON (required)")
	sloPath := fs.String("slo", "", "SLO spec JSON (required)")
	workers := fs.Int("workers", 0, "worker bound (0 = GOMAXPROCS; any value is byte-identical)")
	maxServers := fs.Int("max-servers", loadgen.DefaultMaxServers, "capacity search ceiling")
	seed := fs.Uint64("seed", 0, "override the spec's seed")
	csvPath := fs.String("csv", "", "also write the knee sweep as CSV")
	if err := fs.Parse(args); err != nil {
		return err
	}
	seedSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			seedSet = true
		}
	})
	spec, err := loadSpec(*specPath, *seed, seedSet)
	if err != nil {
		return err
	}
	if *sloPath == "" {
		return fmt.Errorf("-slo is required")
	}
	sloSpec, err := slo.LoadSpec(*sloPath)
	if err != nil {
		return err
	}
	evs, err := loadgen.ScheduleParallel(spec, *workers)
	if err != nil {
		return err
	}
	report, err := loadgen.Plan(spec, evs, sloSpec, loadgen.PlanOptions{
		MaxServers: *maxServers,
		Workers:    *workers,
	})
	if err != nil {
		return err
	}
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	if err := report.WriteText(out); err != nil {
		return err
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			return err
		}
		return errors.Join(report.WriteKneeCSV(f), f.Close())
	}
	return nil
}

func schedule(args []string) error {
	fs := flag.NewFlagSet("schedule", flag.ExitOnError)
	specPath := fs.String("spec", "", "load spec JSON (required)")
	workers := fs.Int("workers", 0, "worker bound (byte-identical at any value)")
	n := fs.Int("n", 0, "print only the first n events (0 = all)")
	seed := fs.Uint64("seed", 0, "override the spec's seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	seedSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			seedSet = true
		}
	})
	spec, err := loadSpec(*specPath, *seed, seedSet)
	if err != nil {
		return err
	}
	evs, err := loadgen.ScheduleParallel(spec, *workers)
	if err != nil {
		return err
	}
	if *n > 0 && *n < len(evs) {
		evs = evs[:*n]
	}
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	return loadgen.WriteCSV(out, evs)
}

func run(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	specPath := fs.String("spec", "", "load spec JSON (required)")
	addrList := fs.String("addr", "", "comma-separated live server addresses (one per shard)")
	local := fs.Int("local", 0, "boot N in-process server shards instead of dialing -addr")
	workers := fs.Int("workers", 0, "concurrent hive session bound (0 = GOMAXPROCS)")
	sleepScale := fs.Float64("sleep-scale", 0, "scale real retry-backoff sleeps (0 = retry immediately)")
	stallMS := fs.Float64("stall-ms", -1, "override the spec's per-upload server stall for -local shards")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := loadSpec(*specPath, 0, false)
	if err != nil {
		return err
	}

	var addrs, dashes []string
	var servers []*hivenet.Server
	switch {
	case *local > 0:
		if *stallMS >= 0 {
			spec.Server.StallMS = *stallMS
		}
		var closeAll func()
		servers, addrs, dashes, closeAll, err = bootLocal(spec, *local)
		if err != nil {
			return err
		}
		defer closeAll()
	case *addrList != "":
		addrs = strings.Split(*addrList, ",")
	default:
		return fmt.Errorf("run needs -addr or -local")
	}

	evs, err := loadgen.ScheduleParallel(spec, *workers)
	if err != nil {
		return err
	}
	started := time.Now() //beelint:allow walltime real replay duration for the report
	res, err := loadgen.Run(spec, evs, loadgen.RunOptions{
		Addrs:      addrs,
		Dashboards: dashes,
		Workers:    *workers,
		SleepScale: *sleepScale,
	})
	if err != nil {
		return err
	}
	elapsed := time.Since(started) //beelint:allow walltime real replay duration for the report

	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	fmt.Fprintf(out, "replayed %q: %d hives, %d uploads offered in %.2fs wall\n",
		spec.Name, spec.Hives, res.Offered, elapsed.Seconds())
	fmt.Fprintf(out, "  delivered    %d (%.4f)\n", res.Delivered, frac(res.Delivered, res.Offered))
	fmt.Fprintf(out, "  lost         %d\n", res.Lost)
	fmt.Fprintf(out, "  unattempted  %d\n", res.Unattempted)
	fmt.Fprintf(out, "  rejects      %d (typed over-capacity answers)\n", res.Rejected)
	fmt.Fprintf(out, "  link drops   %d\n", res.DroppedLink)
	fmt.Fprintf(out, "  sessions     refused %d, failed %d\n", res.RefusedSessions, res.FailedSessions)
	if res.FirstErr != nil {
		fmt.Fprintf(out, "  first error  %v\n", res.FirstErr)
	}
	fmt.Fprintf(out, "  reads        %d ok, %d errors\n", res.Reads, res.ReadErrors)
	if h, ok := res.Registry.Snapshot().FindHistogram(loadgen.MetricUploadWallSeconds); ok {
		if p50, ok := h.Quantile(0.5); ok {
			p99, _ := h.Quantile(0.99)
			fmt.Fprintf(out, "  wall latency p50 %.4fs, p99 %.4fs over %d uploads\n", p50, p99, h.Count)
		}
	}
	for i, s := range servers {
		st := s.Stats()
		fmt.Fprintf(out, "  shard %d: sessions %d uploads %d rejects %d shed %d\n",
			i, st.Sessions, st.Uploads, st.Rejects, st.ArchiveShed)
	}
	return nil
}

func frac(a, b int) float64 {
	if b == 0 {
		return 1
	}
	return float64(a) / float64(b)
}

// bootLocal starts n in-process server shards sized for the spec —
// slot plane provisioned for one session per hive, admission plane
// taken from the spec's server shape verbatim — each with a loopback
// dashboard so the schedule's read traffic hits a real HTTP surface.
func bootLocal(spec loadgen.LoadSpec, n int) (servers []*hivenet.Server, addrs, dashes []string, closeAll func(), err error) {
	perShard := spec.Hives/n + 1
	cfg := hivenet.DefaultServerConfig()
	cfg.TrainCorpus = 16
	cfg.ClipSeconds = spec.ClipS
	cfg.Seed = spec.Seed
	cfg.MaxParallel = perShard
	cfg.Slots = 2
	cfg.Metrics = obs.NewRegistry()
	cfg.Admission = hivenet.AdmissionConfig{
		MaxSessions:        spec.Server.MaxSessions,
		MaxInflightUploads: spec.Server.MaxInflight,
		MaxArchiveRecords:  spec.Server.MaxArchiveRecords,
		UploadStall:        time.Duration(spec.Server.StallMS * float64(time.Millisecond)),
	}
	var dashboards []*http.Server
	closeAll = func() {
		for _, hs := range dashboards {
			_ = hs.Close()
		}
		for _, s := range servers {
			_ = s.Close()
		}
	}
	for i := 0; i < n; i++ {
		s, serr := hivenet.NewServer("127.0.0.1:0", cfg)
		if serr != nil {
			closeAll()
			return nil, nil, nil, nil, serr
		}
		go func() { _ = s.Serve() }()
		servers = append(servers, s)
		addrs = append(addrs, s.Addr())
		ln, lerr := net.Listen("tcp", "127.0.0.1:0")
		if lerr != nil {
			closeAll()
			return nil, nil, nil, nil, lerr
		}
		hs := hivenet.NewDashboard(s).HTTPServer()
		dashboards = append(dashboards, hs)
		go func() { _ = hs.Serve(ln) }()
		dashes = append(dashes, "http://"+ln.Addr().String())
	}
	return servers, addrs, dashes, closeAll, nil
}
