// Command bench is the repository's benchmark: it builds cmd/distributor
// and cmd/backend, runs them as real processes on loopback (one
// distributor, two back ends) on one CPU, places a seeded site through the
// console, drives it over two keep-alive connections from another CPU,
// checks every response, and prints the workload's metrics as one JSON
// line. See README.md.
//
//	bench --workload relay_small --seed 1 --seconds 22 --trace 0
//	bench --workload relay_small --seed 1 --seconds 22 --trace 1
//	bench -compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
)

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed for the site, the request streams and the churn script")
	seconds := flag.Int("seconds", 22, "length of the measured window")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced pass and the layer walk")
	out := flag.String("out", "", "append this run's full record (metrics, slices, environment) to this file, one JSON object per line")
	compare := flag.Bool("compare", false, "compare two -out files given as arguments instead of running")
	root := flag.String("root", "", "module root holding cmd/distributor and cmd/backend (default: . or ..)")
	work := flag.String("work", "", "scratch directory for binaries and cluster files (default: <root>/.bench_build)")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: bench -compare a.jsonl b.jsonl")
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	w := workloadByName(*workload)
	if w == nil {
		fatal(fmt.Sprintf("unknown workload %q; have %s", *workload, strings.Join(workloadNames(), ", ")))
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		fatal("need --seconds >= 1 and --trace 0 or 1")
	}
	if os.Getenv(refEnv) != "" {
		fatal(serveReference(w, *seed))
	}
	if err := pinSelf(); err != nil {
		fatal(err)
	}
	cfg := runConfig{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1, root: *root, work: *work}
	if cfg.root == "" {
		cfg.root = findRoot()
	}
	if cfg.work == "" {
		cfg.work = filepath.Join(cfg.root, ".bench_build")
	}
	cfg.traceDir = filepath.Join(cfg.root, "bench", "out")

	// Children live in their own process groups; kill them on every way
	// out, including an interrupt.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAll()
		os.Exit(130)
	}()

	rec, err := run(cfg)
	if err != nil {
		killAll()
		fatal(err)
	}
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			fatal(err)
		}
	}
	if !rec.Correct {
		fmt.Fprintf(os.Stderr, "bench: %s: %d of %d failed: %s\n", w.name, rec.Failed, rec.Attempted, rec.Error)
	}
	// the contract's result line: exactly these four keys, last on stdout
	line, err := json.Marshal(map[string]any{
		"correct": rec.Correct, "attempted": rec.Attempted, "failed": rec.Failed, "metrics": rec.Metrics,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !rec.Correct {
		os.Exit(1)
	}
}

func fatal(v any) {
	fmt.Fprintln(os.Stderr, "bench:", v)
	os.Exit(1)
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// findRoot locates the module that holds the binaries to measure: the
// working directory when run from the repository root, its parent when
// run from bench/.
func findRoot() string {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "distributor")); err == nil {
			return dir
		}
	}
	fatal("cannot find cmd/distributor in . or ..; pass -root")
	return ""
}

// appendRecord appends rec to path as one JSON line.
func appendRecord(path string, rec *runRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(append(line, '\n'))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
