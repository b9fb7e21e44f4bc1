package main

// The trace subcommand is the critical-path analyzer: it reads one or
// more Chrome trace JSON files (written by beesim trace/sweep -trace,
// or fetched from the dashboard's /api/trace/{id}), stitches them into
// one timeline, and attributes each traced upload's end-to-end latency
// to named segments — compute, per-attempt airtime, retry, backoff,
// server handling. With -metrics it cross-references the snapshot's
// histogram exemplars against the analyzed traces.
//
//	hivereport trace run.trace.json
//	hivereport trace -top 10 edge.trace.json cloud.trace.json
//	hivereport trace -metrics snap.json -json run.trace.json

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"beesim/internal/obs"
	"beesim/internal/report"
)

func runTrace(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("hivereport trace", flag.ContinueOnError)
	top := fs.Int("top", 5, "slowest-uploads rows to show")
	metricsPath := fs.String("metrics", "", "metrics snapshot JSON for exemplar cross-reference")
	asJSON := fs.Bool("json", false, "emit trace summaries and segment stats as JSON")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: hivereport trace [-top 5] [-metrics snap.json] [-json] trace.json [more.json...]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 1 {
		fs.Usage()
		return errors.New("trace needs at least one trace JSON file")
	}
	if *top < 1 {
		return errors.New("-top must be at least 1")
	}

	lists := make([][]obs.TraceEvent, 0, fs.NArg())
	for _, path := range fs.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		events, err := obs.ParseTraceJSON(data)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		lists = append(lists, events)
	}
	sums := obs.AnalyzeTraces(obs.Stitch(lists...))

	var snap obs.Snapshot
	if *metricsPath != "" {
		data, err := os.ReadFile(*metricsPath)
		if err != nil {
			return err
		}
		if snap, err = obs.ParseSnapshot(data); err != nil {
			return fmt.Errorf("%s: %w", *metricsPath, err)
		}
	}

	if *asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(struct {
			Traces   []obs.TraceSummary `json:"traces"`
			Segments []obs.SegmentStats `json:"segments"`
		}{sums, obs.AggregateSegments(sums)})
	}
	return report.WriteTraceReport(out, sums, *top, snap)
}
