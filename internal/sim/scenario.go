package sim

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"webcluster/internal/admission"
	"webcluster/internal/config"
	"webcluster/internal/content"
	"webcluster/internal/loadbal"
	"webcluster/internal/urltable"
	"webcluster/internal/workload"
)

// Scenario replay: a declarative workload.Spec driven against a simulated
// deployment on the discrete-event engine. Where Run measures one
// steady-state window, RunScenario replays a whole timeline — diurnal
// rate curves, flash crowds, popularity churn, node maintenance — and
// emits per-interval statistics, so placement and admission policies are
// judged on day-long behaviour instead of a single operating point.
//
// Time compression is the discrete-event clock itself: virtual time
// advances event-to-event, so a 24 h scenario costs only its event
// processing (seconds of wall time for millions of requests). A spec's
// TimeScale additionally shrinks the timeline's *shape* — durations are
// divided, per-second rates kept — so CI can replay a compressed flash
// crowd with identical load levels and queueing behaviour.

// ScenarioOptions configures the deployment a scenario runs against.
type ScenarioOptions struct {
	// Cluster is the hardware; defaults to config.PaperTestbed().
	Cluster config.ClusterSpec
	// Hardware calibrates the simulated machines.
	Hardware HardwareParams
	// Scheme selects the placement scheme (default SchemePartition).
	Scheme Scheme
	// Placement tunes SchemePartition.
	Placement PlacementOptions
	// AutoBalance runs the §3.3 auto-replication planner at every
	// timeline interval (content-aware schemes only).
	AutoBalance bool
	// Planner tunes the auto-replication planner.
	Planner loadbal.PlannerOptions
	// Admission, when non-nil, arms the front end's simulated SLO-class
	// admission gate: each workload class maps to its sloClass and the
	// shedding ladder engages under overload. Nil routes everything.
	Admission *AdmissionParams
}

// DefaultScenarioOptions returns the standard scenario deployment: the
// paper testbed under the partition scheme with auto-replication on.
func DefaultScenarioOptions() ScenarioOptions {
	return ScenarioOptions{
		Cluster:     config.PaperTestbed(),
		Hardware:    DefaultHardware(),
		Scheme:      SchemePartition,
		Placement:   DefaultPlacementOptions(),
		AutoBalance: true,
		Planner: loadbal.PlannerOptions{
			Threshold:         0.25,
			MaxActionsPerNode: 8,
			MinHits:           20,
		},
	}
}

// RunScenario replays spec against a fresh deployment and returns the
// timeline. Deterministic for a given (spec, opts) pair: the same seed
// yields a byte-identical CSV.
func RunScenario(spec *workload.Spec, opts ScenarioOptions) (*Timeline, error) {
	if spec == nil {
		return nil, fmt.Errorf("sim: nil scenario spec")
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if len(opts.Cluster.Nodes) == 0 {
		opts.Cluster = config.PaperTestbed()
	}
	if opts.Hardware == (HardwareParams{}) {
		opts.Hardware = DefaultHardware()
	}
	if opts.Scheme == 0 {
		opts.Scheme = SchemePartition
	}
	if opts.Planner == (loadbal.PlannerOptions{}) {
		opts.Planner = DefaultScenarioOptions().Planner
	}

	site, err := workload.BuildSite(spec.Kind(), spec.Objects, spec.Seed)
	if err != nil {
		return nil, err
	}
	eng := &Engine{}
	cluster, err := BuildDeployment(eng, opts.Hardware, opts.Cluster, site, opts.Scheme, opts.Placement)
	if err != nil {
		return nil, err
	}
	perm, err := workload.NewPermutation(site.Len(), spec.Seed+97)
	if err != nil {
		return nil, err
	}

	scale := spec.EffectiveTimeScale()
	sd := func(d time.Duration) time.Duration {
		return time.Duration(float64(d) / scale)
	}
	interval := sd(spec.EffectiveInterval())
	if interval <= 0 {
		return nil, fmt.Errorf("sim: interval %v collapses to zero at time scale %g", spec.EffectiveInterval(), scale)
	}
	end := sd(spec.Duration.D())
	if end <= 0 {
		return nil, fmt.Errorf("sim: duration %v collapses to zero at time scale %g", spec.Duration.D(), scale)
	}

	r := &scenarioRun{
		spec:       spec,
		opts:       opts,
		eng:        eng,
		cluster:    cluster,
		site:       site,
		perm:       perm,
		tracker:    loadbal.NewTracker(loadbal.PaperWeights()),
		scale:      scale,
		end:        end,
		interval:   interval,
		globalMult: 1,
	}
	cluster.Frontend.SetObserver(func(node config.NodeID, class content.Class, procTime time.Duration) {
		r.tracker.Record(node, class, procTime)
	})
	if opts.Admission != nil {
		cluster.Frontend.EnableAdmission(*opts.Admission)
	}

	// Interval closers first: at a shared timestamp they must run before
	// any same-instant completion (engine FIFO gives setup-time events
	// the smaller sequence numbers), so interval boundaries are exact.
	r.lastHits, r.lastMisses = r.cacheCounters()
	for t := interval; ; t += interval {
		boundary := t
		if boundary >= end {
			eng.ScheduleAt(end, func() { r.closeInterval(end) })
			break
		}
		eng.ScheduleAt(boundary, func() { r.closeInterval(boundary) })
	}

	// Timeline events second.
	for i := range spec.Events {
		ev := spec.Events[i]
		if ev.Kind == workload.EventNodeDown || ev.Kind == workload.EventNodeUp {
			if _, ok := cluster.NodeByID(config.NodeID(ev.Node)); !ok {
				return nil, fmt.Errorf("sim: events[%d]: unknown node %q", i, ev.Node)
			}
		}
		eng.ScheduleAt(sd(ev.At.D()), func() { r.applyEvent(ev, sd) })
	}

	// Client classes last.
	for i := range spec.Classes {
		if err := r.startClass(i); err != nil {
			return nil, err
		}
	}

	// Drive the clock with the step primitives: process everything up to
	// the scenario end, then stop. Whatever is still in flight past the
	// end is deliberately abandoned — the timeline measures (0, end].
	for eng.HasPendingEvents() {
		at, _ := eng.PeekNextEventTime()
		if at > end {
			break
		}
		eng.ProcessNextEvent()
	}

	return &Timeline{
		Name:            spec.Name,
		Interval:        interval,
		TimeScale:       scale,
		VirtualDuration: end,
		Points:          r.points,
		Decisions:       r.decisions,
		TotalRequests:   r.totalReqs,
		TotalErrors:     r.totalErrs,
		EventsExecuted:  eng.Executed(),
	}, nil
}

// scenarioRun is the mutable state of one replay.
type scenarioRun struct {
	spec    *workload.Spec
	opts    ScenarioOptions
	eng     *Engine
	cluster *Cluster
	site    *content.Site
	perm    *workload.Permutation
	tracker *loadbal.Tracker

	scale    float64
	end      time.Duration
	interval time.Duration

	classes    []*classDriver
	globalMult float64
	downNodes  int

	// Current-interval accumulators.
	intervalStart time.Duration
	reqs, errs    int64
	lat           []time.Duration
	// Per-SLO-class accumulators: latency over served (OK or stale)
	// requests, admission sheds, and stale-degraded serves.
	classLat  [admission.NumClasses][]time.Duration
	classShed [admission.NumClasses]int64
	staleSrv  int64

	lastHits, lastMisses int64

	points    []TimelinePoint
	decisions []DecisionPoint
	totalReqs int64
	totalErrs int64
	finished  bool
}

// classDriver drives one client class.
type classDriver struct {
	run     *scenarioRun
	spec    workload.ClassSpec
	sampler workload.Sampler
	zipf    *workload.Zipf
	mult    float64
	slo     admission.Class
}

// startClass builds and schedules the class at index i.
func (r *scenarioRun) startClass(i int) error {
	cs := r.spec.Classes[i]
	zipfS := cs.ZipfS
	if zipfS == 0 {
		zipfS = workload.DefaultZipfS
	}
	// Per-class streams: the class index is mixed into the seed so
	// classes with identical declared seeds still draw independently.
	base := r.spec.Seed + cs.Seed + int64(i+1)*15485863
	z, err := workload.NewZipf(r.site.Len(), zipfS, base+1)
	if err != nil {
		return fmt.Errorf("sim: classes[%d]: %w", i, err)
	}
	slo := admission.Interactive // what a spec that names no sloClass gets
	if cs.SloClass != "" {
		var ok bool
		if slo, ok = admission.ParseClass(cs.SloClass); !ok {
			return fmt.Errorf("sim: classes[%d]: unknown SLO class %q", i, cs.SloClass)
		}
	}
	c := &classDriver{run: r, spec: cs, zipf: z, mult: 1, slo: slo}
	if cs.Arrival.Process == workload.ProcessClosed {
		r.classes = append(r.classes, c)
		for k := 0; k < cs.Arrival.Clients; k++ {
			client := c
			var issue func()
			issue = func() {
				if r.eng.Now() >= r.end {
					return
				}
				started := r.eng.Now()
				r.cluster.Frontend.RouteSLO(client.draw(), client.slo, func(o RouteOutcome) {
					r.record(started, r.eng.Now(), client.slo, o)
					if think := cs.Arrival.Think.D(); think > 0 {
						r.eng.Schedule(think, issue)
						return
					}
					issue()
				})
			}
			// Stagger closed-loop starts across the first interval
			// fraction to avoid a t=0 thundering herd.
			start := time.Duration(k) * time.Second / time.Duration(cs.Arrival.Clients)
			r.eng.Schedule(start, issue)
		}
		return nil
	}
	sampler, err := workload.NewSampler(cs.Arrival, base+2)
	if err != nil {
		return fmt.Errorf("sim: classes[%d]: %w", i, err)
	}
	c.sampler = sampler
	r.classes = append(r.classes, c)
	r.eng.Schedule(0, c.loop)
	return nil
}

// loop schedules the class's next open-loop arrival. The instantaneous
// rate is sampled at scheduling time — the curve is piecewise linear and
// slow relative to inter-arrival gaps, so this is the usual
// rate-modulated renewal approximation.
func (c *classDriver) loop() {
	r := c.run
	if r.eng.Now() >= r.end {
		return
	}
	// The diurnal curve is declared in pre-TimeScale coordinates.
	unscaled := time.Duration(float64(r.eng.Now()) * r.scale)
	rate := c.spec.Arrival.RatePerSec * r.spec.CurveMultiplier(unscaled) * c.mult * r.globalMult
	gap := workload.Gap(c.sampler.Next(), rate)
	r.eng.Schedule(gap, func() {
		if r.eng.Now() >= r.end {
			return
		}
		started := r.eng.Now()
		r.cluster.Frontend.RouteSLO(c.draw(), c.slo, func(o RouteOutcome) {
			r.record(started, r.eng.Now(), c.slo, o)
		})
		c.loop()
	})
}

// draw picks the class's next object through the shared popularity
// permutation.
func (c *classDriver) draw() content.Object {
	return c.run.site.ByRank(c.run.perm.Apply(c.zipf.Next()))
}

// record accumulates one completed request into the current interval. A
// stale-degraded answer counts as a success (the client got bytes); a
// shed or unroutable request counts as an error. Per-class latency only
// accumulates over served requests — a shed costs the client a refusal,
// not a latency sample.
func (r *scenarioRun) record(started, finished time.Duration, slo admission.Class, o RouteOutcome) {
	if r.finished {
		return
	}
	r.reqs++
	r.totalReqs++
	r.lat = append(r.lat, finished-started)
	switch o {
	case RouteOK:
		r.classLat[slo] = append(r.classLat[slo], finished-started)
	case RouteStale:
		r.classLat[slo] = append(r.classLat[slo], finished-started)
		r.staleSrv++
	case RouteShed:
		r.classShed[slo]++
		r.errs++
		r.totalErrs++
	default: // RouteError
		r.errs++
		r.totalErrs++
	}
}

// closeInterval seals the interval ending at `at`, appends its timeline
// point, and runs the auto-replication planner when enabled.
func (r *scenarioRun) closeInterval(at time.Duration) {
	if r.finished {
		return
	}
	hits, misses := r.cacheCounters()
	dh, dm := hits-r.lastHits, misses-r.lastMisses
	r.lastHits, r.lastMisses = hits, misses
	hitRate := 0.0
	if dh+dm > 0 {
		hitRate = float64(dh) / float64(dh+dm)
	}

	// Per-node loads for this interval; down nodes are excluded so the
	// planner neither targets them nor counts their idleness as
	// imbalance.
	allLoads := r.tracker.IntervalLoads(r.opts.Cluster.Nodes)
	loads := make(map[config.NodeID]float64, len(allLoads))
	for _, n := range r.cluster.Nodes {
		if !n.Down() {
			loads[n.Spec.ID] = allLoads[n.Spec.ID]
		}
	}

	width := at - r.intervalStart
	p50, p99 := latQuantile(r.lat, 0.50), latQuantile(r.lat, 0.99)
	point := TimelinePoint{
		Index:        len(r.points),
		Start:        r.intervalStart,
		End:          at,
		Requests:     r.reqs,
		Errors:       r.errs,
		P50:          p50,
		P99:          p99,
		LoadCV:       loadCV(loads),
		Replicas:     r.replicaCount(),
		CacheHitRate: hitRate,
		DownNodes:    r.downNodes,
		ClassShed:    r.classShed,
		StaleServed:  r.staleSrv,
	}
	for i := range point.ClassP99 {
		point.ClassP99[i] = latQuantile(r.classLat[i], 0.99)
	}
	if width > 0 {
		point.RPS = float64(r.reqs) / width.Seconds()
	}
	r.points = append(r.points, point)
	r.intervalStart = at
	r.reqs, r.errs = 0, 0
	r.lat = r.lat[:0]
	for i := range r.classLat {
		r.classLat[i] = r.classLat[i][:0]
	}
	r.classShed = [admission.NumClasses]int64{}
	r.staleSrv = 0

	if at >= r.end {
		r.finished = true
		return
	}
	if r.opts.AutoBalance && r.cluster.Table != nil {
		r.applyPlan(loads, at, point.Index)
	}
}

// applyPlan runs the §3.3 planner on the interval loads and applies its
// placement actions to the table and nodes (copies are instantaneous at
// this scale, as in AutoBalanceExperiment). Every decision — applied or
// not — is appended to the replay's decision journal with the planner
// inputs that produced it.
func (r *scenarioRun) applyPlan(loads map[config.NodeID]float64, at time.Duration, interval int) {
	decs := loadbal.PlanDecisions(loads, r.cluster.Table, r.opts.Planner)
	for _, d := range decs {
		applied := false
		switch d.Kind {
		case loadbal.ActionReplicate:
			if err := r.cluster.Table.AddLocation(d.Path, d.Target); err == nil {
				applied = true
				if n, ok := r.cluster.NodeByID(d.Target); ok {
					n.Place(d.Path)
				}
			}
		case loadbal.ActionOffload:
			if err := r.cluster.Table.RemoveLocation(d.Path, d.Target); err == nil {
				applied = true
				if n, ok := r.cluster.NodeByID(d.Target); ok {
					n.Unplace(d.Path)
				}
			}
		}
		r.decisions = append(r.decisions, DecisionPoint{
			Interval:   interval,
			At:         at,
			Kind:       d.Kind.String(),
			Path:       d.Path,
			Source:     string(d.Source),
			Target:     string(d.Target),
			Hits:       d.Hits,
			LoadCV:     d.LoadCV,
			SourceLoad: d.SourceLoad,
			TargetLoad: d.TargetLoad,
			Reason:     d.Reason,
			Rejected:   strings.Join(d.Rejected, ";"),
			Applied:    applied,
		})
	}
	r.cluster.Table.ResetHits()
}

// applyEvent executes one timeline event.
func (r *scenarioRun) applyEvent(ev workload.EventSpec, sd func(time.Duration) time.Duration) {
	switch ev.Kind {
	case workload.EventRate:
		targets := r.eventTargets(ev.Class)
		for _, c := range targets {
			c.mult *= ev.X
		}
		if ev.Duration > 0 {
			x := ev.X
			r.eng.Schedule(sd(ev.Duration.D()), func() {
				for _, c := range targets {
					c.mult /= x
				}
			})
		}
	case workload.EventFlashCrowd:
		r.perm.PromoteRandom(ev.HotObjects)
		if ev.X > 0 {
			r.globalMult *= ev.X
			if ev.Duration > 0 {
				x := ev.X
				r.eng.Schedule(sd(ev.Duration.D()), func() { r.globalMult /= x })
			}
		}
	case workload.EventChurn:
		frac := ev.Fraction
		if frac == 0 {
			frac = 1
		}
		r.perm.Shuffle(frac)
	case workload.EventNodeDown:
		if n, ok := r.cluster.NodeByID(config.NodeID(ev.Node)); ok && !n.Down() {
			n.SetDown(true)
			r.downNodes++
		}
	case workload.EventNodeUp:
		if n, ok := r.cluster.NodeByID(config.NodeID(ev.Node)); ok && n.Down() {
			n.SetDown(false)
			r.downNodes--
		}
	}
}

// eventTargets resolves a rate event's class scope.
func (r *scenarioRun) eventTargets(class string) []*classDriver {
	if class == "" {
		return r.classes
	}
	for _, c := range r.classes {
		if c.spec.ID == class {
			return []*classDriver{c}
		}
	}
	return nil
}

// cacheCounters sums page-cache hits and misses across the deployment.
func (r *scenarioRun) cacheCounters() (hits, misses int64) {
	for _, n := range r.cluster.Nodes {
		st := n.CacheStats()
		hits += st.Hits
		misses += st.Misses
	}
	if r.cluster.NFS != nil {
		st := r.cluster.NFS.CacheStats()
		hits += st.Hits
		misses += st.Misses
	}
	return hits, misses
}

// replicaCount returns the total number of content copies.
func (r *scenarioRun) replicaCount() int {
	if r.cluster.Table != nil {
		replicas := 0
		r.cluster.Table.Walk(func(rec urltable.Record) { replicas += len(rec.Locations) })
		return replicas
	}
	if r.cluster.NFS != nil {
		return r.site.Len()
	}
	return len(r.cluster.Nodes) * r.site.Len()
}

// loadCV computes the coefficient of variation over loads in sorted node
// order, so float summation order — and therefore the emitted CSV — is
// identical across runs.
func loadCV(loads map[config.NodeID]float64) float64 {
	if len(loads) == 0 {
		return 0
	}
	ids := make([]config.NodeID, 0, len(loads))
	for id := range loads {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var sum float64
	for _, id := range ids {
		sum += loads[id]
	}
	mean := sum / float64(len(ids))
	if mean == 0 {
		return 0
	}
	var ss float64
	for _, id := range ids {
		d := loads[id] - mean
		ss += d * d
	}
	return math.Sqrt(ss/float64(len(ids))) / mean
}

// latQuantile returns the q-quantile of lat by nearest rank; lat is
// sorted in place.
func latQuantile(lat []time.Duration, q float64) time.Duration {
	if len(lat) == 0 {
		return 0
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	idx := int(q * float64(len(lat)))
	if idx >= len(lat) {
		idx = len(lat) - 1
	}
	return lat[idx]
}
