// Command hivenet runs the networked realization of the paper's
// architecture: a cloud queen-detection service and smart-beehive edge
// agents speaking the beesim wire protocol over TCP.
//
// Usage:
//
//	hivenet serve [-addr :7700] [-cap 10] [-slots 18] [-http addr] [-obs]
//	hivenet agent -addr host:7700 [-hive cachan-1] [-cycles 3]
//	              [-placement edge|cloud] [-state present|lost|piping]
//	              [-trace out.json]
//
// With -obs the server keeps a metrics registry (sessions, reports,
// uploads, slot allocations, burst energy, HTTP request durations) and
// the dashboard exposes snapshot endpoints at /metrics (text) and
// /api/metrics (JSON). It also arms a tracer: upload frames carrying a
// W3C traceparent get a joined server handler span, fetchable as a
// Chrome trace at /api/trace/{id}, with the slowest uploads ranked at
// /api/slowest. With -ledger it also keeps an energy ledger of every
// upload's receive/execute burst, exported at /api/ledger as JSONL for
// hivereport.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"beesim/internal/hive"
	"beesim/internal/hivenet"
	"beesim/internal/ledger"
	"beesim/internal/obs"
	"beesim/internal/slo"
	"beesim/internal/routine"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "serve":
		err = serve(os.Args[2:])
	case "agent":
		err = agent(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "hivenet: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hivenet:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: hivenet <serve|agent> [flags]`)
}

func serve(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7700", "listen address")
	httpAddr := fs.String("http", "", "dashboard listen address (e.g. 127.0.0.1:7780); empty disables")
	maxPar := fs.Int("cap", 10, "clients allowed in parallel per time slot")
	slots := fs.Int("slots", 18, "time slots per cycle")
	corpus := fs.Int("corpus", 80, "training corpus size")
	archive := fs.String("archive", "", "persist reports and verdicts to this file")
	withObs := fs.Bool("obs", false, "keep a metrics registry and expose /metrics on the dashboard")
	withLedger := fs.Bool("ledger", false, "keep an energy ledger and expose /api/ledger on the dashboard")
	sloPath := fs.String("slo", "", "SLO spec JSON; expose live evaluation at /api/slo (implies -obs)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := hivenet.DefaultServerConfig()
	cfg.MaxParallel = *maxPar
	cfg.Slots = *slots
	cfg.TrainCorpus = *corpus
	cfg.ArchivePath = *archive
	cfg.Logf = log.Printf
	var spec slo.Spec
	if *sloPath != "" {
		var err error
		if spec, err = slo.LoadSpec(*sloPath); err != nil {
			return err
		}
	}
	if *withObs || *sloPath != "" {
		cfg.Metrics = obs.NewRegistry()
		// Span-tagged handler spans join agent traceparents, so uploads
		// can be fetched as Chrome traces at /api/trace/{id} and the
		// slowest uploads ranked at /api/slowest.
		cfg.Tracer = obs.NewTracer(time.Now().UTC()) //beelint:allow walltime live server anchors its trace epoch to real time; simulations construct tracers from virtual epochs
	}
	if *withLedger {
		cfg.Ledger = ledger.New()
	}
	s, err := hivenet.NewServer(*addr, cfg)
	if err != nil {
		return err
	}
	log.Printf("cloud service on %s (detector accuracy %.1f%%, %d slots x %d clients)",
		s.Addr(), 100*s.DetectorAccuracy(), *slots, *maxPar)
	if *httpAddr != "" {
		dash := hivenet.NewDashboard(s)
		if *sloPath != "" {
			dash.SetSLO(spec)
		}
		hs := dash.HTTPServer()
		hs.Addr = *httpAddr
		go func() {
			log.Printf("dashboard on http://%s/", *httpAddr)
			if err := hs.ListenAndServe(); err != nil {
				log.Printf("dashboard: %v", err)
			}
		}()
	}
	return s.Serve()
}

func agent(args []string) error {
	fs := flag.NewFlagSet("agent", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7700", "server address")
	hiveID := fs.String("hive", "cachan-1", "hive identifier")
	cycles := fs.Int("cycles", 3, "cycles to run")
	placement := fs.String("placement", "cloud", "edge or cloud")
	state := fs.String("state", "present", "colony truth: present, lost or piping")
	seed := fs.Uint64("seed", 1, "random seed")
	tracePath := fs.String("trace", "", "trace the cycles and write a Chrome trace JSON to this file; uploads carry a traceparent the server joins")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := hivenet.DefaultAgentConfig(*hiveID)
	cfg.Seed = *seed
	switch *placement {
	case "edge":
		cfg.Placement = routine.EdgeOnly
	case "cloud":
		cfg.Placement = routine.EdgeCloud
	default:
		return fmt.Errorf("unknown placement %q", *placement)
	}
	var q hive.QueenState
	switch *state {
	case "present":
		q = hive.QueenPresent
	case "lost":
		q = hive.QueenLost
	case "piping":
		q = hive.QueenPiping
	default:
		return fmt.Errorf("unknown state %q", *state)
	}

	var tr *obs.Tracer
	if *tracePath != "" {
		tr = obs.NewTracer(time.Now().UTC()) //beelint:allow walltime live agent anchors its trace epoch to real time; simulated agents trace on virtual epochs
		cfg.Tracer = tr
	}
	a, err := hivenet.Dial(*addr, cfg)
	if err != nil {
		return err
	}
	defer a.Close()
	fmt.Printf("hive %s connected, time slot %d\n", *hiveID, a.Slot())
	for i := 0; i < *cycles; i++ {
		res, err := a.RunCycle(q, 0.7, time.Now().UTC()) //beelint:allow walltime live agent CLI stamps real reports; simulated agents pass virtual time here
		if err != nil {
			return err
		}
		verdict := "queen present"
		if !res.QueenPresent {
			verdict = "QUEENLESS"
		}
		fmt.Printf("cycle %d: %s (computed at %s, confidence %.2f)\n",
			i+1, verdict, res.ComputedAt, res.Confidence)
	}
	fmt.Printf("edge energy spent (active tasks): %v over %d cycles\n",
		a.EdgeEnergy(), a.Cycles())
	if tr != nil {
		f, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		if err := tr.WriteJSON(f); err != nil {
			_ = f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("trace written to %s (last trace id %s)\n", *tracePath, a.LastTraceID())
	}
	return nil
}
