// Package prof wires runtime/pprof CPU and heap profiling into a CLI
// with two flags and two calls:
//
//	p := prof.Register(flag.CommandLine)
//	flag.Parse()
//	if err := p.Start(); err != nil { ... }
//	defer func() { err = errors.Join(err, p.Stop()) }()
//
// Stop returns file close errors instead of swallowing them, so a full
// disk surfaces in the CLI's exit code rather than as a silently
// truncated profile.
package prof

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Profiler holds the flag values and the open CPU profile file.
type Profiler struct {
	cpuPath *string
	memPath *string
	cpuFile *os.File
}

// Register adds -cpuprofile and -memprofile to fs and returns the
// profiler to Start after parsing.
func Register(fs *flag.FlagSet) *Profiler {
	return &Profiler{
		cpuPath: fs.String("cpuprofile", "", "write a CPU profile to this file"),
		memPath: fs.String("memprofile", "", "write a heap profile to this file on exit"),
	}
}

// Start begins CPU profiling when -cpuprofile was given. Call after
// flag parsing and before the workload.
func (p *Profiler) Start() error {
	if p == nil || *p.cpuPath == "" {
		return nil
	}
	f, err := os.Create(*p.cpuPath)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		return errors.Join(fmt.Errorf("prof: starting CPU profile: %w", err), f.Close())
	}
	p.cpuFile = f
	return nil
}

// Stop ends CPU profiling and writes the heap profile when -memprofile
// was given. Safe to call when Start did nothing; every file error —
// including close — is returned.
func (p *Profiler) Stop() error {
	if p == nil {
		return nil
	}
	var errs []error
	if p.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := p.cpuFile.Close(); err != nil {
			errs = append(errs, err)
		}
		p.cpuFile = nil
	}
	if *p.memPath != "" {
		f, err := os.Create(*p.memPath)
		if err != nil {
			errs = append(errs, err)
		} else {
			runtime.GC() // up-to-date allocation statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				errs = append(errs, fmt.Errorf("prof: writing heap profile: %w", err))
			}
			if err := f.Close(); err != nil {
				errs = append(errs, err)
			}
		}
	}
	return errors.Join(errs...)
}
