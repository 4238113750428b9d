// Command benchfigs regenerates every figure and table of the paper's
// evaluation (§5) from the cluster simulator and prints the same
// rows/series the paper reports.
//
// Usage:
//
//	benchfigs -exp all|fig2|fig3|fig4|overhead|balance|sensitivity|ablate-pick|ablate-weights [-objects N] [-seed N] [-fast] [-csv dir]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"webcluster/internal/config"
	"webcluster/internal/content"
	"webcluster/internal/loadbal"
	"webcluster/internal/sim"
	"webcluster/internal/urltable"
	"webcluster/internal/workload"
)

func main() {
	exp := flag.String("exp", "all", "experiment: all|fig2|fig3|fig4|overhead|balance|sensitivity|ablate-pick|ablate-weights")
	objects := flag.Int("objects", 0, "site object count (0 = default)")
	seed := flag.Int64("seed", 1, "random seed")
	fast := flag.Bool("fast", false, "shorter windows and fewer client counts")
	csvDir := flag.String("csv", "", "also write <dir>/figN.csv for plotting")
	flag.Parse()
	if err := run(*exp, *objects, *seed, *fast, *csvDir); err != nil {
		fmt.Fprintln(os.Stderr, "benchfigs:", err)
		os.Exit(1)
	}
}

// writeCSV emits one comma-separated table.
func writeCSV(dir, name string, header []string, rows [][]string) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("creating csv dir: %w", err)
	}
	var b strings.Builder
	b.WriteString(strings.Join(header, ","))
	b.WriteByte('\n')
	for _, row := range rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	fmt.Printf("(wrote %s)\n", path)
	return nil
}

// figureCSV converts a figure's series into CSV rows.
func figureCSV(dir, name string, fig sim.FigureData) error {
	header := []string{"clients"}
	for _, s := range fig.Series {
		header = append(header, s.Name)
	}
	var rows [][]string
	if len(fig.Series) > 0 {
		for i := range fig.Series[0].Points {
			row := []string{fmt.Sprint(fig.Series[0].Points[i].Clients)}
			for _, s := range fig.Series {
				row = append(row, fmt.Sprintf("%.1f", s.Points[i].Throughput))
			}
			rows = append(rows, row)
		}
	}
	return writeCSV(dir, name, header, rows)
}

func run(exp string, objects int, seed int64, fast bool, csvDir string) error {
	p := sim.DefaultExperimentParams()
	p.Seed = seed
	if objects > 0 {
		p.Objects = objects
	}
	if fast {
		p.ClientCounts = []int{8, 32, 64, 120}
		p.Warmup = 4 * time.Second
		p.Measure = 10 * time.Second
	}
	switch exp {
	case "all":
		for _, e := range []string{"overhead", "fig2", "fig3", "fig4", "balance", "sensitivity", "ablate-pick", "ablate-weights"} {
			if err := run(e, objects, seed, fast, csvDir); err != nil {
				return err
			}
			fmt.Println()
		}
		return nil
	case "fig2":
		fig, err := sim.Figure2(p)
		if err != nil {
			return err
		}
		fmt.Print(fig.Render())
		detail(fig)
		if err := figureCSV(csvDir, "fig2.csv", fig); err != nil {
			return err
		}
	case "fig3":
		fig, err := sim.Figure3(p)
		if err != nil {
			return err
		}
		fmt.Print(fig.Render())
		detail(fig)
		if err := figureCSV(csvDir, "fig3.csv", fig); err != nil {
			return err
		}
	case "fig4":
		fig, err := sim.Figure4(p)
		if err != nil {
			return err
		}
		fmt.Print(fig.Render())
		var rows [][]string
		for _, r := range fig.Rows {
			rows = append(rows, []string{
				r.Class,
				fmt.Sprintf("%.1f", r.Baseline),
				fmt.Sprintf("%.1f", r.Segregated),
				fmt.Sprintf("%.1f", r.GainPercent),
			})
		}
		if err := writeCSV(csvDir, "fig4.csv",
			[]string{"class", "baseline", "segregated", "gain_pct"}, rows); err != nil {
			return err
		}
	case "overhead":
		return overhead(seed)
	case "balance":
		bp := sim.DefaultBalanceParams()
		bp.Seed = seed
		if objects > 0 {
			bp.Objects = objects
		}
		if fast {
			bp.Rounds = 4
			bp.Interval = 2 * time.Second
		}
		series, err := sim.AutoBalanceExperiment(bp)
		if err != nil {
			return err
		}
		fmt.Print(series.Render())
		var rows [][]string
		for _, pt := range series.Points {
			rows = append(rows, []string{
				fmt.Sprintf("%.0f", pt.At.Seconds()),
				fmt.Sprintf("%.1f", pt.Throughput),
				fmt.Sprintf("%.3f", pt.LoadCV),
				fmt.Sprint(pt.Actions),
				fmt.Sprint(pt.Replicas),
			})
		}
		if err := writeCSV(csvDir, "balance.csv",
			[]string{"t_sec", "req_per_sec", "load_cv", "actions", "copies"}, rows); err != nil {
			return err
		}
	case "sensitivity":
		sp := p
		if fast {
			sp.Warmup = 3 * time.Second
			sp.Measure = 8 * time.Second
		}
		thrash, err := sim.SensitivityThrash(sp, []float64{1, 4, 8, 16, 32})
		if err != nil {
			return err
		}
		fmt.Print(thrash.Render())
		fmt.Println()
		scale, err := sim.SensitivityScale(sp, []int{4000, 8000, 16000, 32000})
		if err != nil {
			return err
		}
		fmt.Print(scale.Render())
	case "ablate-pick":
		return ablatePick(p)
	case "ablate-weights":
		return ablateWeights()
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}

// detail prints cache-hit-rate and latency context under a figure (the
// mechanisms the paper credits for configuration 3's win).
func detail(fig sim.FigureData) {
	for _, s := range fig.Series {
		for _, pt := range s.Points {
			var lat time.Duration
			var n int64
			for _, cr := range pt.Result.PerClass {
				lat += cr.TotalLatency
				n += cr.Requests
			}
			if n > 0 {
				lat /= time.Duration(n)
			}
			fmt.Printf("  %s @ %d clients: cache hit %.1f%%, mean RT %v, errors %d",
				s.Name, pt.Clients, 100*pt.Result.CacheHitRate,
				lat.Round(10*time.Microsecond), pt.Result.Errors)
			if pt.Result.NFSOps > 0 {
				fmt.Printf(", NFS ops %d", pt.Result.NFSOps)
			}
			fmt.Println()
		}
	}
}

// overhead reproduces the §5.2 URL-table measurement: memory footprint and
// lookup latency at the paper's live-site scale (~8700 objects).
func overhead(seed int64) error {
	gen := content.DefaultGenParams()
	gen.Seed = seed
	site, err := content.GenerateSite(gen)
	if err != nil {
		return err
	}
	table := urltable.New(urltable.Options{})
	for _, obj := range site.Objects() {
		if err := table.Insert(obj, "n1"); err != nil {
			return err
		}
	}
	// Zipf-distributed lookups, as at peak load.
	g, err := workload.NewGenerator(site, workload.DefaultZipfS, seed)
	if err != nil {
		return err
	}
	const lookups = 200000
	paths := make([]string, lookups)
	for i := range paths {
		paths[i] = g.Next().Path
	}
	runtime.GC()
	start := time.Now()
	for _, p := range paths {
		if _, err := table.Route(p); err != nil {
			return err
		}
	}
	elapsed := time.Since(start)
	st := table.Stats()
	fmt.Println("§5.2 URL-table overhead (paper: ~8700 objects, ~260 KB, 4.32 µs avg lookup)")
	fmt.Printf("objects: %d\n", st.Entries)
	fmt.Printf("table memory: %.0f KB\n", float64(st.MemBytes)/1024)
	fmt.Printf("avg lookup: %.2f µs over %d Zipf lookups\n",
		float64(elapsed.Microseconds())/float64(lookups), lookups)
	return nil
}

// ablatePick compares replica-selection policies inside the content-aware
// distributor at the Figure 4 operating point.
func ablatePick(p ExperimentOverride) error {
	fmt.Println("Ablation: replica-selection policy (partition, Workload B, 120 clients)")
	fmt.Printf("%-10s%12s\n", "policy", "req/s")
	for _, name := range []string{"wlc", "lc", "rr", "random", "leastload"} {
		picker, err := loadbal.ByName(name, p.Seed)
		if err != nil {
			return err
		}
		res, err := runPartitionWithPicker(p, picker)
		if err != nil {
			return err
		}
		fmt.Printf("%-10s%12.1f\n", name, res.Throughput())
	}
	return nil
}

// ExperimentOverride aliases sim.ExperimentParams for the ablations.
type ExperimentOverride = sim.ExperimentParams

// runPartitionWithPicker runs the partition scheme with a custom picker.
func runPartitionWithPicker(p sim.ExperimentParams, picker loadbal.Picker) (sim.Result, error) {
	site, err := workload.BuildSite(workload.KindB, p.Objects, p.Seed)
	if err != nil {
		return sim.Result{}, err
	}
	eng := &sim.Engine{}
	table, err := sim.PartitionSite(site, p.Spec, p.Placement)
	if err != nil {
		return sim.Result{}, err
	}
	cluster, err := sim.BuildCustom(eng, p.Hardware, p.Spec, table, picker)
	if err != nil {
		return sim.Result{}, err
	}
	rp := sim.DefaultRunParams(p.SaturationClients)
	rp.Seed = p.Seed
	rp.Warmup = p.Warmup
	rp.Measure = p.Measure
	return sim.Run(cluster, site, sim.SchemePartition, rp)
}

// ablateWeights compares the paper's §3.3 load-metric constants against
// uniform weights in the auto-replication planner: with a hot spot on one
// node, does the planner's classification match ground truth?
func ablateWeights() error {
	fmt.Println("Ablation: §3.3 load-metric constants (paper (1,9)/(10,5) vs uniform)")
	for _, cfg := range []struct {
		name    string
		weights loadbal.CostWeights
	}{
		{"paper", loadbal.PaperWeights()},
		{"uniform", loadbal.UniformWeights()},
	} {
		tr := loadbal.NewTracker(cfg.weights)
		// One node serving dynamic content at high processing time, one
		// serving static quickly, one idle.
		specs := []config.NodeSpec{
			{ID: "dyn", CPUMHz: 350, MemoryMB: 128},
			{ID: "static", CPUMHz: 350, MemoryMB: 128},
			{ID: "idle", CPUMHz: 350, MemoryMB: 128},
		}
		for i := 0; i < 100; i++ {
			tr.Record(specs[0].ID, content.ClassCGI, 30*time.Millisecond)
			tr.Record(specs[1].ID, content.ClassHTML, 2*time.Millisecond)
		}
		loads := tr.IntervalLoads(specs)
		levels := loadbal.Classify(loads, 0.25)
		fmt.Printf("%-8s L(dyn-node)=%.2f L(static-node)=%.2f L(idle)=%.2f → %v/%v/%v\n",
			cfg.name, loads[specs[0].ID], loads[specs[1].ID], loads[specs[2].ID],
			levels[specs[0].ID], levels[specs[1].ID], levels[specs[2].ID])
	}
	return nil
}
