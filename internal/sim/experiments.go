package sim

import (
	"fmt"
	"strings"
	"time"

	"webcluster/internal/config"
	"webcluster/internal/content"
	"webcluster/internal/loadbal"
	"webcluster/internal/workload"
)

// ExperimentParams sizes the figure-regeneration experiments. The figures
// plot throughput against WebBench client count for the §5.1 testbed.
type ExperimentParams struct {
	// Spec is the cluster; defaults to config.PaperTestbed().
	Spec config.ClusterSpec
	// Hardware calibrates the simulated machines.
	Hardware HardwareParams
	// Objects sizes the site. The figure workloads use enough content
	// that the full working set exceeds one node's memory — the regime
	// the paper's cache argument (§5.3) is about.
	Objects int
	// ClientCounts is the x-axis of Figures 2 and 3.
	ClientCounts []int
	// SaturationClients is the Figure 4 operating point (120 in §5.3).
	SaturationClients int
	// Seed drives all randomness.
	Seed int64
	// Run overrides the per-point run parameters' windows.
	Warmup, Measure time.Duration
	// Placement tunes configuration 3.
	Placement loadbal.PlacementOptions
}

// DefaultExperimentParams returns the standard evaluation setup.
func DefaultExperimentParams() ExperimentParams {
	return ExperimentParams{
		Spec:              config.PaperTestbed(),
		Hardware:          DefaultHardware(),
		Objects:           16000,
		ClientCounts:      []int{8, 16, 32, 48, 64, 80, 96, 120},
		SaturationClients: 120,
		Seed:              1,
		Warmup:            8 * time.Second,
		Measure:           20 * time.Second,
		Placement:         loadbal.DefaultPlacementOptions(),
	}
}

// Point is one (clients, throughput) sample of a figure series.
type Point struct {
	Clients    int
	Throughput float64
	Result     Result
}

// Series is one curve of a figure.
type Series struct {
	Name   string
	Points []Point
}

// FigureData is a full regenerated figure.
type FigureData struct {
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// Render formats the figure as an aligned text table, one row per client
// count — the form the paper's bar/line charts reduce to.
func (f FigureData) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", f.Title)
	fmt.Fprintf(&b, "%-10s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, "%22s", s.Name)
	}
	b.WriteByte('\n')
	if len(f.Series) == 0 {
		return b.String()
	}
	for i := range f.Series[0].Points {
		fmt.Fprintf(&b, "%-10d", f.Series[0].Points[i].Clients)
		for _, s := range f.Series {
			fmt.Fprintf(&b, "%22.1f", s.Points[i].Throughput)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// runPoint builds a fresh deployment and measures one (scheme, clients)
// cell.
func runPoint(p ExperimentParams, kind workload.Kind, scheme Scheme, clients int) (Result, error) {
	site, err := workload.BuildSite(kind, p.Objects, p.Seed)
	if err != nil {
		return Result{}, err
	}
	eng := &Engine{}
	cluster, err := BuildDeployment(eng, p.Hardware, p.Spec, site, scheme, p.Placement)
	if err != nil {
		return Result{}, err
	}
	rp := DefaultRunParams(clients)
	rp.Seed = p.Seed
	if p.Warmup > 0 {
		rp.Warmup = p.Warmup
	}
	if p.Measure > 0 {
		rp.Measure = p.Measure
	}
	return Run(cluster, site, scheme, rp)
}

// sweep measures one scheme across all client counts.
func sweep(p ExperimentParams, kind workload.Kind, scheme Scheme, name string) (Series, error) {
	s := Series{Name: name, Points: make([]Point, 0, len(p.ClientCounts))}
	for _, clients := range p.ClientCounts {
		res, err := runPoint(p, kind, scheme, clients)
		if err != nil {
			return Series{}, fmt.Errorf("sim: %s at %d clients: %w", name, clients, err)
		}
		s.Points = append(s.Points, Point{
			Clients:    clients,
			Throughput: res.Throughput(),
			Result:     res,
		})
	}
	return s, nil
}

// Figure2 regenerates "Benefit of content partition (Workload A)":
// throughput vs clients for (1) full replication + L4 WLC, (2) NFS + L4
// WLC, (3) partition + content-aware routing.
func Figure2(p ExperimentParams) (FigureData, error) {
	fig := FigureData{
		Title:  "Figure 2: Benefit of content partition (Workload A)",
		XLabel: "clients",
		YLabel: "req/s",
	}
	for _, cfg := range []struct {
		scheme Scheme
		name   string
	}{
		{SchemeFullReplication, "replication+L4/WLC"},
		{SchemeNFS, "NFS+L4/WLC"},
		{SchemePartition, "partition+content-aware"},
	} {
		s, err := sweep(p, workload.KindA, cfg.scheme, cfg.name)
		if err != nil {
			return FigureData{}, err
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// Figure3 regenerates "Benefit of content partition (Workload B)":
// throughput vs clients for full replication + WLC versus partition +
// content-aware routing under the dynamic-content workload.
func Figure3(p ExperimentParams) (FigureData, error) {
	fig := FigureData{
		Title:  "Figure 3: Benefit of content partition (Workload B)",
		XLabel: "clients",
		YLabel: "req/s",
	}
	for _, cfg := range []struct {
		scheme Scheme
		name   string
	}{
		{SchemeFullReplication, "replication+L4/WLC"},
		{SchemePartition, "partition+content-aware"},
	} {
		s, err := sweep(p, workload.KindB, cfg.scheme, cfg.name)
		if err != nil {
			return FigureData{}, err
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// Figure4Row is one content class's saturation comparison.
type Figure4Row struct {
	Class       string
	Baseline    float64 // req/s without segregation (full replication + WLC)
	Segregated  float64 // req/s with content-aware segregation
	GainPercent float64
	// Mean response times under each scheme (the paper's causal story:
	// segregation keeps short requests from queueing behind long ones).
	BaselineRT   time.Duration
	SegregatedRT time.Duration
}

// Figure4Data is the regenerated Figure 4.
type Figure4Data struct {
	Clients int
	Rows    []Figure4Row
}

// Render formats the figure as a table.
func (f Figure4Data) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4: Benefit of content segregation (%d clients, Workload B)\n", f.Clients)
	fmt.Fprintf(&b, "%-10s%14s%14s%10s%14s%14s\n",
		"class", "baseline r/s", "segregated", "gain", "baseline RT", "segregated RT")
	for _, r := range f.Rows {
		fmt.Fprintf(&b, "%-10s%14.1f%14.1f%9.0f%%%14v%14v\n",
			r.Class, r.Baseline, r.Segregated, r.GainPercent,
			r.BaselineRT.Round(100*time.Microsecond), r.SegregatedRT.Round(100*time.Microsecond))
	}
	return b.String()
}

// Figure4 regenerates "Benefit of content segregation": per-class
// throughput at saturation (120 clients), content segregation versus full
// replication + WLC. The paper reports +45% CGI, +42% ASP, +58% static.
func Figure4(p ExperimentParams) (Figure4Data, error) {
	base, err := runPoint(p, workload.KindB, SchemeFullReplication, p.SaturationClients)
	if err != nil {
		return Figure4Data{}, fmt.Errorf("sim: figure 4 baseline: %w", err)
	}
	seg, err := runPoint(p, workload.KindB, SchemePartition, p.SaturationClients)
	if err != nil {
		return Figure4Data{}, fmt.Errorf("sim: figure 4 segregated: %w", err)
	}
	gain := func(b, s float64) float64 {
		if b == 0 {
			return 0
		}
		return (s - b) / b * 100
	}
	staticRT := func(r Result) time.Duration {
		h := r.PerClass[content.ClassHTML]
		i := r.PerClass[content.ClassImage]
		n := h.Requests + i.Requests
		if n == 0 {
			return 0
		}
		return (h.TotalLatency + i.TotalLatency) / time.Duration(n)
	}
	rows := []Figure4Row{
		{
			Class:        "cgi",
			Baseline:     base.ClassThroughput(content.ClassCGI),
			Segregated:   seg.ClassThroughput(content.ClassCGI),
			BaselineRT:   base.PerClass[content.ClassCGI].MeanLatency(),
			SegregatedRT: seg.PerClass[content.ClassCGI].MeanLatency(),
		},
		{
			Class:        "asp",
			Baseline:     base.ClassThroughput(content.ClassASP),
			Segregated:   seg.ClassThroughput(content.ClassASP),
			BaselineRT:   base.PerClass[content.ClassASP].MeanLatency(),
			SegregatedRT: seg.PerClass[content.ClassASP].MeanLatency(),
		},
		{
			Class:        "static",
			Baseline:     base.StaticThroughput(),
			Segregated:   seg.StaticThroughput(),
			BaselineRT:   staticRT(base),
			SegregatedRT: staticRT(seg),
		},
	}
	for i := range rows {
		rows[i].GainPercent = gain(rows[i].Baseline, rows[i].Segregated)
	}
	return Figure4Data{Clients: p.SaturationClients, Rows: rows}, nil
}
