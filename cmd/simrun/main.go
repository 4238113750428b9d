// Command simrun replays a declarative workload scenario against the
// simulated cluster and writes the per-interval timeline as CSV — the
// day-long evaluation harness behind the scenario test suite.
//
// Usage:
//
//	simrun -scenario day -out timeline.csv
//	simrun -spec examples/scenarios/flashcrowd.json -time-scale 20 -out -
//
// Built-in scenarios: day (24 h diurnal curve with a flash crowd and a
// maintenance window over Workload B), flash-crowd (sustained hot-shift
// surge the auto-replication planner must absorb), surge (three SLO
// classes under a ×10 flash crowd — pair with -admit to watch the
// shedding ladder engage). A JSON spec file (-spec) overrides
// -scenario; see DESIGN.md §12 for the schema.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"webcluster/internal/admission"
	"webcluster/internal/sim"
	"webcluster/internal/workload"
)

// surgeShares is the critical:interactive:batch split simrun gives the
// admission budget. At the default -admit-max of 24 it yields per-class
// limits of 20/3/1, the setting that holds the surge scenario's critical
// p99 within 2x of steady state. The distributor runs admission's default
// 3:2:1 split, which fails that surge (EXPERIMENTS.md, "One admission
// ladder").
var surgeShares = [admission.NumClasses]int{20, 3, 1}

func main() {
	scenario := flag.String("scenario", "day", "built-in scenario name (day|flash-crowd|surge)")
	specFile := flag.String("spec", "", "JSON workload-spec file (overrides -scenario)")
	out := flag.String("out", "timeline.csv", "timeline CSV path (- for stdout)")
	journalCSV := flag.String("journal-csv", "", "also write the planner decision journal as CSV (- for stdout)")
	seed := flag.Int64("seed", 0, "override the spec's seed (0 = keep)")
	timeScale := flag.Float64("time-scale", 0, "override the spec's time compression (0 = keep)")
	interval := flag.Duration("interval", 0, "override the timeline aggregation interval (0 = keep)")
	scheme := flag.String("scheme", "partition", "placement scheme (partition|full-replication|nfs)")
	autobalance := flag.Bool("autobalance", true, "run the auto-replication planner each interval")
	admit := flag.Bool("admit", false, "enable SLO-class admission control at the front end")
	admitMax := flag.Int("admit-max", 24, "admission concurrency budget (with -admit)")
	quiet := flag.Bool("q", false, "suppress the summary on stderr")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "simrun:", err)
		os.Exit(1)
	}
	var spec *workload.Spec
	var err error
	if *specFile != "" {
		spec, err = workload.LoadSpec(*specFile)
	} else {
		spec, err = workload.BuiltinScenario(*scenario)
	}
	if err != nil {
		fail(err)
	}
	if *seed != 0 {
		spec.Seed = *seed
	}
	if *timeScale > 0 {
		spec.TimeScale = *timeScale
	}
	if *interval > 0 {
		spec.Interval = workload.Duration(*interval)
	}

	opts := sim.DefaultScenarioOptions()
	opts.AutoBalance = *autobalance
	switch *scheme {
	case "partition":
		opts.Scheme = sim.SchemePartition
	case "full-replication":
		opts.Scheme = sim.SchemeFullReplication
	case "nfs":
		opts.Scheme = sim.SchemeNFS
	default:
		fail(fmt.Errorf("unknown scheme %q (want partition|full-replication|nfs)", *scheme))
	}
	if *admit {
		opts.Admission = &admission.Options{MaxConcurrent: *admitMax, Shares: surgeShares}
	}
	if err := run(spec, opts, *out, *journalCSV, *quiet); err != nil {
		fail(err)
	}
}

// run replays spec and writes the timeline to out and, when journalCSV is
// set, the planner decisions beside it ("-" is stdout for either).
func run(spec *workload.Spec, opts sim.ScenarioOptions, out, journalCSV string, quiet bool) error {
	wallStart := time.Now()
	timeline, err := sim.RunScenario(spec, opts)
	if err != nil {
		return err
	}
	wall := time.Since(wallStart)

	if err := writeTo(out, timeline.WriteCSV); err != nil {
		return err
	}
	if journalCSV != "" {
		if err := writeTo(journalCSV, timeline.WriteDecisionsCSV); err != nil {
			return err
		}
	}
	if !quiet {
		fmt.Fprint(os.Stderr, timeline.Summary())
		factor := float64(timeline.VirtualDuration) / float64(wall)
		fmt.Fprintf(os.Stderr, "  wall %v (%.0fx time compression)\n", wall.Round(time.Millisecond), factor)
		if out != "-" {
			fmt.Fprintf(os.Stderr, "  timeline written to %s\n", out)
		}
		if journalCSV != "" && journalCSV != "-" {
			fmt.Fprintf(os.Stderr, "  %d planner decisions written to %s\n", len(timeline.Decisions), journalCSV)
		}
	}
	return nil
}

// writeTo runs write against the file at path, or stdout for "-".
func writeTo(path string, write func(io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
