package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"os"
	"strconv"
	"time"
)

// The reference server is the benchmark's yardstick for the host. The
// sandbox is a slice of a shared machine that runs 20-40 % slow for
// minutes at a time (README, "What the box allows"): long enough to
// cover several whole runs, so no estimator inside a run can see past
// it. What can is a second measurement of the same kind taken in the
// same minute on code that never changes: this server, a few dozen lines
// that answer the run's request stream from memory, on the cluster's
// CPU, driven by the same load generator between the slices of the
// measured window. How long it takes per request against a fixed nominal
// is how slow the host is right now, and the run's rates and times are
// scaled by that.

// refEnv marks the process as the reference server; it takes the
// workload and the seed from the usual flags.
const refEnv = "BENCH_REFERENCE"

// probeLength is how long the reference server is driven before each
// slice and after the last.
const probeLength = 200 * time.Millisecond

// probePass offsets the request-stream index of the probes from those of
// the measured slices.
const probePass = 1000

// serveReference generates the site of (w, seed), names its listener on
// standard output the way cmd/backend does, and serves every object at
// its path until killed.
func serveReference(w *workloadDef, seed int64) error {
	answers := map[string][]byte{}
	for _, o := range generateSite(w.site, seed).objects {
		head := "HTTP/1.1 200 OK\r\nContent-Length: " + strconv.Itoa(len(o.want[0])) + "\r\n\r\n"
		answers[o.path] = append([]byte(head), o.want[0]...)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	fmt.Println("reference web", ln.Addr())
	for {
		c, err := ln.Accept()
		if err != nil {
			return err
		}
		go func() {
			defer func() { _ = c.Close() }()
			br := bufio.NewReaderSize(c, 4<<10)
			for {
				// "GET <path> HTTP/1.1", then header lines up to the empty one
				line, err := br.ReadSlice('\n')
				if err != nil {
					return
				}
				f := bytes.Fields(line)
				if len(f) != 3 {
					return
				}
				answer := answers[string(f[1])]
				for len(bytes.TrimRight(line, "\r\n")) > 0 {
					if line, err = br.ReadSlice('\n'); err != nil {
						return
					}
				}
				if _, err := c.Write(answer); err != nil {
					return
				}
			}
		}()
	}
}

// startReference spawns the reference server for the run on the cluster's
// CPU and wraps it as a cluster of one, so runWindow can drive it.
func startReference(cfg runConfig) (*cluster, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ref, err := spawn("reference", exe, []string{"web"}, []string{refEnv + "=1"},
		"-workload", cfg.workload.name, "-seed", strconv.FormatInt(cfg.seed, 10))
	if err != nil {
		return nil, err
	}
	ref.addrs["front"] = ref.addrs["web"]
	return &cluster{dist: ref}, nil
}

// probeReference drives the reference server for probeLength and returns
// the time it took per verified response, in microseconds.
func probeReference(ref *cluster, cfg runConfig, st *site, i int) (float64, error) {
	w := *cfg.workload
	w.churn = false // the reference server has no console
	win, err := runWindow(ref, &w, st, cfg.seed, probePass+i, probeLength, &churnRunner{}, nil)
	if err != nil {
		return 0, err
	}
	if win.failed > 0 || win.ok() == 0 {
		return 0, fmt.Errorf("reference server: %d of %d failed: %v", win.failed, len(win.samples), win.firstErr)
	}
	return float64(win.elapsed.Microseconds()) / float64(win.ok()), nil
}
