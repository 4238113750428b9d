package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// readRecords loads the --trace 0 records of an -out file, grouped by
// workload.
func readRecords(path string) (map[string][]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }()
	out := map[string][]runRecord{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec runRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !rec.Trace {
			out[rec.Workload] = append(out[rec.Workload], rec)
		}
	}
	return out, sc.Err()
}

// quartileSpread is the distance between the first and third quartile of
// vs as a share of their median, with the quartiles Python's
// statistics.quantiles(vs, n=4) gives (the driver's acceptance measure).
func quartileSpread(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	if m := median(s); m != 0 {
		return (quartile(3) - quartile(1)) / m
	}
	return 0
}

// sideStats reduces one file's runs of a (workload, metric) pair: the
// median over runs, and how far the runs — or, with fewer than four runs,
// the slices inside them — disagree.
func sideStats(runs []runRecord, metric string) (med, spr float64) {
	var vs []float64
	for _, r := range runs {
		vs = append(vs, r.Metrics[metric].Value)
		if s := r.Slices[metric]; len(runs) < 4 && len(s) > 0 {
			spr = max(spr, spread(s))
		}
	}
	if len(runs) >= 4 {
		spr = quartileSpread(vs)
	}
	return median(vs), spr
}

// verdict judges one pair: worse is how much b's median is worse than
// a's, as a share of a's.
func verdict(worse, spreadA, spreadB, bound float64) string {
	switch {
	case max(spreadA, spreadB) > bound:
		return "unresolved"
	case worse > bound:
		return "regressed"
	default:
		return "ok"
	}
}

// compareFiles prints one row per (workload, end-to-end metric) found in
// both files and reports whether any regressed.
func compareFiles(w io.Writer, pathA, pathB string) (regressed bool, err error) {
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta\tb\tworse by\tspread\tbound\tverdict")
	rows := 0
	for _, wl := range workloads {
		if len(a[wl.name]) == 0 || len(b[wl.name]) == 0 {
			continue
		}
		for _, m := range endToEnd {
			medA, sprA := sideStats(a[wl.name], m.name)
			medB, sprB := sideStats(b[wl.name], m.name)
			worse := ratio(medB-medA, medA)
			if m.better == "higher" {
				worse = -worse
			}
			v := verdict(worse, sprA, sprB, m.bound)
			regressed = regressed || v == "regressed"
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.4g\t%+.1f%%\t%.1f%%\t%.0f%%\t%s\n",
				wl.name, m.name, m.unit, medA, medB, 100*worse, 100*max(sprA, sprB), 100*m.bound, v)
			rows++
		}
	}
	if err := tw.Flush(); err != nil {
		return false, err
	}
	if rows == 0 {
		return false, fmt.Errorf("%s and %s share no workload", pathA, pathB)
	}
	return regressed, nil
}
