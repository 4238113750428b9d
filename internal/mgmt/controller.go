package mgmt

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"webcluster/internal/config"
	"webcluster/internal/content"
	"webcluster/internal/doctree"
	"webcluster/internal/journal"
	"webcluster/internal/lifecycle"
	"webcluster/internal/loadbal"
	"webcluster/internal/monitor"
	"webcluster/internal/respcache"
	"webcluster/internal/telemetry"
	"webcluster/internal/urltable"
)

// CacheView is the slice of the distributor's response cache the
// management plane drives: synchronous purges after every content or
// placement mutation, and counters for the console. Wiring one in is what
// makes the front-end cache coherent — the controller purges affected
// paths before a mutation returns, so the cache never serves content the
// doctree no longer holds.
type CacheView interface {
	Invalidate(path string) int
	InvalidateAll() int
	Stats() respcache.Stats
}

// Controller is the special daemon that receives administrator requests
// and dispatches agents to brokers (§3.1). It owns the agent repository,
// executes doctree plans (file steps through agents, then the URL-table
// update), and applies the §3.3 auto-replication planner's actions.
// Construct with NewController.
type Controller struct {
	table *urltable.Table

	mu      sync.Mutex
	brokers map[config.NodeID]*BrokerClient
	repo    map[string]Spec
	cache   CacheView
	tel     *telemetry.Telemetry
	jnl     *journal.Journal
	dumper  func(reason string) (string, error)

	installsSent int64
}

// NewController returns a controller managing table, with the built-in
// agent repository loaded and a journal of its own.
func NewController(table *urltable.Table) *Controller {
	repo := make(map[string]Spec)
	for _, spec := range BuiltinSpecs() {
		repo[spec.Name] = spec
	}
	return &Controller{
		table:   table,
		brokers: make(map[config.NodeID]*BrokerClient),
		repo:    repo,
		jnl:     journal.New(journal.Options{Node: "front"}),
	}
}

// Table returns the managed URL table.
func (c *Controller) Table() *urltable.Table { return c.table }

// AddNode connects the controller to the broker for node at addr.
func (c *Controller) AddNode(node config.NodeID, brokerAddr string) error {
	client, err := DialBroker(brokerAddr)
	if err != nil {
		return fmt.Errorf("controller: %w", err)
	}
	client.onRedial = func(err error) { c.journalRedial(node, err) }
	c.mu.Lock()
	old := c.brokers[node]
	c.brokers[node] = client
	c.mu.Unlock()
	// Closed outside c.mu: a call in flight on old holds old's lock and
	// may be journaling a redial, which takes c.mu.
	if old != nil {
		_ = old.Close()
	}
	return nil
}

// RemoveNode disconnects node's broker.
func (c *Controller) RemoveNode(node config.NodeID) {
	c.mu.Lock()
	client := c.brokers[node]
	delete(c.brokers, node)
	c.mu.Unlock()
	if client != nil {
		_ = client.Close()
	}
}

// journalRedial records that node's broker connection was lost and
// dialed again; err is the dial's outcome.
func (c *Controller) journalRedial(node config.NodeID, err error) {
	detail := "reconnected"
	if err != nil {
		detail = err.Error()
	}
	c.record(journal.Event{Kind: journal.KindBrokerRedial, Node: string(node), Detail: detail})
}

// Nodes returns the managed node IDs, sorted.
func (c *Controller) Nodes() []config.NodeID {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]config.NodeID, 0, len(c.brokers))
	for id := range c.brokers {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// InstallsSent counts agent specs shipped to brokers (download-on-demand
// traffic).
func (c *Controller) InstallsSent() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.installsSent
}

// SetCache attaches the front-end response cache so mutations purge it.
func (c *Controller) SetCache(v CacheView) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cache = v
}

// cacheView returns the attached cache, nil when none.
func (c *Controller) cacheView() CacheView {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cache
}

// SetTelemetry attaches the front end's (distributor's) telemetry layer
// so cluster-wide stats include the distributor's own view alongside the
// per-node scrapes.
func (c *Controller) SetTelemetry(t *telemetry.Telemetry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tel = t
}

// telemetryView returns the attached front-end telemetry, nil when none.
func (c *Controller) telemetryView() *telemetry.Telemetry {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tel
}

// SetJournal replaces the controller's journal with the front end's,
// which the distributor and the monitor record into too. The journal is
// the only record of what the controller did: planner decisions, every
// mutation and its outcome, cache purges and broker redials. It is
// merged with the per-node scrapes in ClusterJournal.
func (c *Controller) SetJournal(j *journal.Journal) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.jnl = j
}

// journalView returns the controller's journal.
func (c *Controller) journalView() *journal.Journal {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.jnl
}

// record journals ev as the controller's.
func (c *Controller) record(ev journal.Event) {
	ev.Actor = journal.ActorController
	c.journalView().Record(ev)
}

// SetDumper attaches the flight recorder's manual trigger so the
// console dump verb can reach it.
func (c *Controller) SetDumper(fn func(reason string) (string, error)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dumper = fn
}

// DumpFlight triggers a flight-recorder bundle and returns its path.
func (c *Controller) DumpFlight(reason string) (string, error) {
	c.mu.Lock()
	fn := c.dumper
	c.mu.Unlock()
	if fn == nil {
		return "", errors.New("controller: no flight recorder attached")
	}
	return fn(reason)
}

// gatherReports scrapes the telemetry of every reachable node (via
// OpTelemetry dispatch) plus the attached front-end layer. Nodes that
// fail to answer are skipped — a single-system image over the nodes that
// are alive beats no image at all — and their IDs are returned so the
// caller can surface the gap.
func (c *Controller) gatherReports() (reports []telemetry.Report, missing []config.NodeID) {
	if t := c.telemetryView(); t != nil {
		reports = append(reports, t.Report(telemetryReportSpans))
	}
	for _, node := range c.Nodes() {
		res, err := c.Dispatch(node, OpTelemetry.String(), Args{})
		if err != nil || res.Telemetry == nil {
			missing = append(missing, node)
			continue
		}
		reports = append(reports, *res.Telemetry)
	}
	return reports, missing
}

// ClusterStats merges every node's telemetry snapshot (plus the front
// end's) into the single-system-image per-class view the console's stats
// verb renders.
func (c *Controller) ClusterStats() (telemetry.ClusterStats, []config.NodeID) {
	reports, missing := c.gatherReports()
	snaps := make([]telemetry.Snapshot, len(reports))
	for i, r := range reports {
		snaps[i] = r.Snapshot
	}
	return telemetry.Summarize(snaps...), missing
}

// ClusterTraces returns the slowest recent spans across every node,
// merged slowest-first and capped at limit (<=0 for the default 32).
func (c *Controller) ClusterTraces(limit int) ([]telemetry.Span, []config.NodeID) {
	if limit <= 0 {
		limit = telemetryReportSpans
	}
	reports, missing := c.gatherReports()
	lists := make([][]telemetry.Span, len(reports))
	for i, r := range reports {
		lists[i] = r.Spans
	}
	return telemetry.MergeSpans(limit, lists...), missing
}

// ClusterJournal merges the front end's journal with every node's
// OpJournal scrape into one time-ordered stream capped at limit (<=0
// for the default 256). A non-empty path keeps only the events about
// that document, in every journal before anything is capped. Nodes that
// fail to answer are returned so the caller can surface the gap.
func (c *Controller) ClusterJournal(path string, limit int) ([]journal.Event, []config.NodeID) {
	if limit <= 0 {
		limit = journalReportEvents
	}
	lists := [][]journal.Event{c.journalView().Snapshot(path, 0)}
	var missing []config.NodeID
	for _, node := range c.Nodes() {
		res, err := c.Dispatch(node, OpJournal.String(), Args{Path: path})
		if err != nil {
			missing = append(missing, node)
			continue
		}
		lists = append(lists, res.Journal)
	}
	merged := journal.Merge(lists...)
	if len(merged) > limit {
		merged = merged[len(merged)-limit:]
	}
	return merged, missing
}

// ExplainReport is the console explain verb's answer: where a document
// lives now, the journal events that shaped that placement, and the
// most recent planner decision about it with the inputs the planner
// saw (interval hits in Decision.A, load CV in Decision.F, branch and
// rejected alternatives in Decision.Detail).
type ExplainReport struct {
	Path      string          `json:"path"`
	Locations []config.NodeID `json:"locations"`
	Pinned    bool            `json:"pinned"`
	Priority  int             `json:"priority"`
	Hits      int64           `json:"hits"`
	Size      int64           `json:"size"`
	// Decision is the newest planner decision concerning Path.
	Decision *journal.Event `json:"decision,omitempty"`
	// History is every journal event touching Path, oldest first.
	History []journal.Event `json:"history,omitempty"`
}

// Explain looks up path and walks the merged cluster journal for the
// events that explain its placement. limit caps History (<=0 keeps
// everything in the journal window).
func (c *Controller) Explain(path string, limit int) (*ExplainReport, []config.NodeID, error) {
	rec, err := c.table.Lookup(path)
	if err != nil {
		return nil, nil, err
	}
	events, missing := c.ClusterJournal(path, 0)
	rep := &ExplainReport{
		Path:      rec.Path,
		Locations: rec.Locations,
		Pinned:    rec.Pinned,
		Priority:  rec.Priority,
		Hits:      rec.Hits,
		Size:      rec.Size,
		History:   events,
	}
	for i := range events {
		if k := events[i].Kind; k == journal.KindPlanReplicate || k == journal.KindPlanOffload {
			rep.Decision = &events[i]
		}
	}
	if limit > 0 && len(rep.History) > limit {
		rep.History = rep.History[len(rep.History)-limit:]
	}
	return rep, missing, nil
}

// purgeCache synchronously invalidates path in the front-end cache after
// the op mutation committed, journaling the purge (under the incident
// trace when the mutation repairs one). Called with the mutation already
// applied on every node and in the table, so a fetch racing the purge
// can only observe post-mutation content.
func (c *Controller) purgeCache(op, path string, trace uint64) {
	v := c.cacheView()
	if v == nil {
		return
	}
	n := v.Invalidate(path)
	c.record(journal.Event{Kind: journal.KindPurge, Trace: trace, Path: path, Detail: op, A: int64(n)})
}

// Purge drops path from the front-end cache on demand (console
// operation); path "*" empties the cache. Returns entries dropped.
func (c *Controller) Purge(path string) (int, error) {
	v := c.cacheView()
	if v == nil {
		return 0, errors.New("controller: no response cache attached")
	}
	var n int
	if path == "*" {
		n = v.InvalidateAll()
	} else {
		n = v.Invalidate(path)
	}
	c.record(journal.Event{Kind: journal.KindPurge, Path: path, Detail: "console", A: int64(n)})
	return n, nil
}

// CacheStats snapshots the attached cache's counters; ok is false when no
// cache is wired in.
func (c *Controller) CacheStats() (stats respcache.Stats, ok bool) {
	v := c.cacheView()
	if v == nil {
		return respcache.Stats{}, false
	}
	return v.Stats(), true
}

// broker returns the client for node.
func (c *Controller) broker(node config.NodeID) (*BrokerClient, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	client, ok := c.brokers[node]
	if !ok {
		return nil, fmt.Errorf("controller: no broker for node %s", node)
	}
	return client, nil
}

// Dispatch invokes agent on node with the download-on-demand retry: when
// the broker lacks the agent, the controller ships the spec from its
// repository and retries once.
func (c *Controller) Dispatch(node config.NodeID, agent string, args Args) (Result, error) {
	client, err := c.broker(node)
	if err != nil {
		return Result{}, err
	}
	result, installed, err := client.run(agent, args, func() (Spec, bool) {
		c.mu.Lock()
		defer c.mu.Unlock()
		spec, ok := c.repo[agent]
		return spec, ok
	})
	if installed {
		c.mu.Lock()
		c.installsSent++
		c.mu.Unlock()
	}
	if err != nil {
		return Result{}, fmt.Errorf("dispatch %s to %s: %w", agent, node, err)
	}
	return result, nil
}

// runStep executes one doctree step via agents.
func (c *Controller) runStep(step doctree.Step) error {
	switch step.Kind {
	case doctree.StepStore:
		_, err := c.Dispatch(step.Node, OpStoreFile.String(), Args{
			Path: step.Path,
			Data: step.Data,
			Size: step.SyntheticSize,
		})
		return err
	case doctree.StepDelete:
		_, err := c.Dispatch(step.Node, OpDeleteFile.String(), Args{Path: step.Path})
		return err
	case doctree.StepCopy:
		// The target pulls the file from the source broker itself; a copy
		// within one node (rename) names no source and opens no socket.
		args := Args{Path: step.Path, Dest: step.DestPath, Size: step.SyntheticSize}
		if step.Source != step.Node {
			source, err := c.broker(step.Source)
			if err != nil {
				return err
			}
			args.Source = source.addr
		}
		if _, err := c.Dispatch(step.Node, OpPullFile.String(), args); err != nil {
			return fmt.Errorf("%s: %w", step, err)
		}
		return nil
	default:
		return fmt.Errorf("controller: unknown step kind %v", step.Kind)
	}
}

// rollBack deletes, best effort, the copies that done — the steps of a plan
// that succeeded before one failed — landed on their nodes, so the aborted
// plan leaves no file the table does not list. It returns the nodes it
// cleaned. It walks back from the failure and stops at the first delete: a
// delete cannot be undone, and a copy made before it may by now be the only
// one left (assign copies to the new holders, then deletes from the old; a
// rename's copy is its node's only one once the old name is gone).
func (c *Controller) rollBack(done []doctree.Step) []config.NodeID {
	var cleaned []config.NodeID
	for i := len(done) - 1; i >= 0 && done[i].Kind != doctree.StepDelete; i-- {
		step := done[i]
		path := step.Path
		if step.Kind == doctree.StepCopy && step.DestPath != "" {
			path = step.DestPath
		}
		if _, err := c.Dispatch(step.Node, OpDeleteFile.String(), Args{Path: path}); err == nil {
			cleaned = append(cleaned, step.Node)
		}
	}
	return cleaned
}

// Execute runs a plan: all file steps, then the table update. A failed
// step aborts before the table changes, so the distributor never routes to
// content that was not actually placed, and the copies the earlier steps
// placed are removed again.
func (c *Controller) Execute(plan doctree.Plan) error {
	return c.execute(plan, 0)
}

// execute is Execute with an incident trace for the journal record, so
// repairs triggered by an open incident stay causally linked to it.
func (c *Controller) execute(plan doctree.Plan, trace uint64) error {
	for i, step := range plan.Steps {
		if err := c.runStep(step); err != nil {
			detail := plan.Describe + ": " + err.Error()
			if cleaned := c.rollBack(plan.Steps[:i]); len(cleaned) > 0 {
				detail += fmt.Sprintf("; rolled back on %v", cleaned)
			}
			c.record(journal.Event{Kind: journal.KindApplyFail, Trace: trace, Path: plan.Path, Detail: detail})
			return fmt.Errorf("executing %q: %w", plan.Describe, err)
		}
	}
	if plan.Apply != nil {
		if err := plan.Apply(c.table); err != nil {
			detail := plan.Describe + ": table update: " + err.Error()
			c.record(journal.Event{Kind: journal.KindApplyFail, Trace: trace, Path: plan.Path, Detail: detail})
			return fmt.Errorf("updating table for %q: %w", plan.Describe, err)
		}
	}
	c.record(journal.Event{Kind: journal.KindApply, Trace: trace, Path: plan.Path, Detail: plan.Describe})
	return nil
}

// Insert places a new object on nodes (console operation).
func (c *Controller) Insert(obj content.Object, data []byte, nodes ...config.NodeID) error {
	plan, err := doctree.InsertPlan(obj, data, nodes...)
	if err != nil {
		return err
	}
	if err := c.Execute(plan); err != nil {
		return err
	}
	// a path can be re-inserted after a delete while a 404 relay is in
	// flight; the purge dooms any such fetch
	c.purgeCache("insert", obj.Path, 0)
	return nil
}

// Delete removes an object everywhere (console operation).
func (c *Controller) Delete(path string) error {
	plan, err := doctree.DeletePlan(c.table, path)
	if err != nil {
		return err
	}
	if err := c.Execute(plan); err != nil {
		return err
	}
	c.purgeCache("delete", path, 0)
	return nil
}

// Rename renames an object everywhere (console operation).
func (c *Controller) Rename(oldPath, newPath string) error {
	plan, err := doctree.RenamePlan(c.table, oldPath, newPath)
	if err != nil {
		return err
	}
	if err := c.Execute(plan); err != nil {
		return err
	}
	c.purgeCache("rename", oldPath, 0)
	c.purgeCache("rename", newPath, 0)
	return nil
}

// Replicate copies an object to target (console operation; also the
// auto-replication executor).
func (c *Controller) Replicate(path string, source, target config.NodeID) error {
	return c.replicate(path, source, target, 0)
}

// replicate is Replicate threading an incident trace through the
// execute/purge journal records.
func (c *Controller) replicate(path string, source, target config.NodeID, trace uint64) error {
	plan, err := doctree.ReplicatePlan(c.table, path, source, target)
	if err != nil {
		return err
	}
	if err := c.execute(plan, trace); err != nil {
		return err
	}
	c.purgeCache("replicate", path, trace)
	return nil
}

// Offload removes node's copy of an object (console operation; also the
// auto-offload executor).
func (c *Controller) Offload(path string, node config.NodeID) error {
	return c.offload(path, node, 0)
}

// offload is Offload threading an incident trace through the
// execute/purge journal records.
func (c *Controller) offload(path string, node config.NodeID, trace uint64) error {
	plan, err := doctree.OffloadPlan(c.table, path, node)
	if err != nil {
		return err
	}
	if err := c.execute(plan, trace); err != nil {
		return err
	}
	c.purgeCache("offload", path, trace)
	return nil
}

// Assign moves an object to exactly the given nodes (console operation).
func (c *Controller) Assign(path string, nodes ...config.NodeID) error {
	plan, err := doctree.AssignPlan(c.table, path, nodes...)
	if err != nil {
		return err
	}
	if err := c.Execute(plan); err != nil {
		return err
	}
	c.purgeCache("assign", path, 0)
	return nil
}

// SetPriority updates an object's priority in the table.
func (c *Controller) SetPriority(path string, priority int) error {
	if err := c.table.SetPriority(path, priority); err != nil {
		return err
	}
	c.record(journal.Event{Kind: journal.KindApply, Path: path, Detail: fmt.Sprintf("priority %d", priority)})
	return nil
}

// Update replaces an object's content on every node holding it — the
// consistency operation for replicated mutable content: one controller-
// driven propagation updates all copies and invalidates their page caches.
// The URL-table size is refreshed once every copy is replaced; a failed
// replica leaves the old size.
func (c *Controller) Update(path string, data []byte) error {
	rec, err := c.table.Lookup(path)
	if err != nil {
		return err
	}
	for _, node := range rec.Locations {
		if _, err := c.Dispatch(node, OpReplaceFile.String(), Args{Path: path, Data: data}); err != nil {
			c.record(journal.Event{Kind: journal.KindApplyFail, Node: string(node), Path: path, Detail: "update: " + err.Error()})
			return fmt.Errorf("updating %s on %s: %w", path, node, err)
		}
	}
	// Every replica holds the new bytes, so the table may report their
	// length. It fails only if the path left the table meanwhile, and then
	// the delete's own purge covers the cache.
	if err := c.table.SetSize(path, int64(len(data))); err != nil {
		return fmt.Errorf("recording new size of %s: %w", path, err)
	}
	c.record(journal.Event{Kind: journal.KindApply, Path: path, Detail: fmt.Sprintf("update on %v", rec.Locations), A: int64(len(data))})
	// purge only after every replica holds the new content: a fetch that
	// starts after this point reads post-mutation bytes from any node
	c.purgeCache("update", path, 0)
	return nil
}

// Verify audits an object's replica consistency: it collects the SHA-256
// of every copy through the checksum agent and reports whether all copies
// agree, returning the per-node checksums for diagnosis.
func (c *Controller) Verify(path string) (consistent bool, sums map[config.NodeID]string, err error) {
	rec, err := c.table.Lookup(path)
	if err != nil {
		return false, nil, err
	}
	sums = make(map[config.NodeID]string, len(rec.Locations))
	first := ""
	consistent = true
	for _, node := range rec.Locations {
		res, err := c.Dispatch(node, OpChecksum.String(), Args{Path: path})
		if err != nil {
			return false, sums, fmt.Errorf("verifying %s on %s: %w", path, node, err)
		}
		sums[node] = res.Message
		if first == "" {
			first = res.Message
		} else if res.Message != first {
			consistent = false
		}
	}
	return consistent, sums, nil
}

// Pin fixes (or releases) an object's placement: pinned content is never
// touched by auto-replication, the §4 treatment for mutable documents
// whose consistency is managed centrally on a dedicated node.
func (c *Controller) Pin(path string, pinned bool) error {
	if err := c.table.SetPinned(path, pinned); err != nil {
		return err
	}
	op := "pin"
	if !pinned {
		op = "unpin"
	}
	c.record(journal.Event{Kind: journal.KindApply, Path: path, Detail: op})
	return nil
}

// View returns the single-system-image tree.
func (c *Controller) View() *doctree.Dir { return doctree.View(c.table) }

// Status probes node through the status agent.
func (c *Controller) Status(node config.NodeID) (monitor.NodeStatus, error) {
	result, err := c.Dispatch(node, OpStatus.String(), Args{})
	if err != nil {
		return monitor.NodeStatus{}, err
	}
	if result.Status == nil {
		return monitor.NodeStatus{}, fmt.Errorf("controller: node %s returned no status", node)
	}
	return *result.Status, nil
}

// Ping probes node's broker liveness.
func (c *Controller) Ping(node config.NodeID) error {
	_, err := c.Dispatch(node, OpPing.String(), Args{})
	return err
}

// ApplyActions executes the load balancer's placement actions (§3.3),
// returning how many succeeded. Individual failures are journaled and
// skipped: a missed rebalance is recoverable next interval.
func (c *Controller) ApplyActions(actions []loadbal.Action) (int, error) {
	decs := make([]loadbal.Decision, len(actions))
	for i, a := range actions {
		decs[i] = loadbal.Decision{Action: a, Reason: "manual"}
	}
	return c.ApplyDecisions(decs, 0)
}

// ApplyDecisions executes the planner's decisions, journaling each one
// with the inputs that produced it (demand, load CV, branch reason,
// rejected alternatives) before applying it, all under trace so
// repairs planned during an incident stay linked to the fault that
// started it. Returns how many applied; individual failures are
// journaled and skipped.
func (c *Controller) ApplyDecisions(decs []loadbal.Decision, trace uint64) (int, error) {
	j := c.journalView()
	applied := 0
	var errs []error
	for _, d := range decs {
		kind := journal.KindPlanReplicate
		if d.Kind == loadbal.ActionOffload {
			kind = journal.KindPlanOffload
		}
		detail := d.Reason
		if len(d.Rejected) > 0 {
			detail = d.Reason + " rejected=" + strings.Join(d.Rejected, ",")
		}
		node := string(d.Target)
		j.Record(journal.Event{
			Actor:  journal.ActorPlanner,
			Kind:   kind,
			Trace:  trace,
			Node:   node,
			Path:   d.Path,
			Detail: detail,
			A:      d.Hits,
			F:      d.LoadCV,
		})
		var err error
		switch d.Kind {
		case loadbal.ActionReplicate:
			err = c.replicate(d.Path, d.Source, d.Target, trace)
		case loadbal.ActionOffload:
			err = c.offload(d.Path, d.Target, trace)
		default:
			err = fmt.Errorf("controller: unknown action kind %v", d.Kind)
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", d.Action, err))
			continue
		}
		applied++
	}
	return applied, errors.Join(errs...)
}

// AutoBalancer periodically closes a load interval, plans placement
// changes and applies them — the §3.3 auto-replication facility. Construct
// with NewAutoBalancer; Start launches the loop; Close joins it.
type AutoBalancer struct {
	controller *Controller
	tracker    *loadbal.Tracker
	specs      []config.NodeSpec
	opts       loadbal.PlannerOptions
	interval   time.Duration

	mu      sync.Mutex
	rounds  int
	applied int
	onLoads func(map[config.NodeID]float64)

	life lifecycle.Group
}

// NewAutoBalancer wires the balancing loop. interval defaults to 2s when
// non-positive.
func NewAutoBalancer(controller *Controller, tracker *loadbal.Tracker, specs []config.NodeSpec, opts loadbal.PlannerOptions, interval time.Duration) *AutoBalancer {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	return &AutoBalancer{
		controller: controller,
		tracker:    tracker,
		specs:      append([]config.NodeSpec(nil), specs...),
		opts:       opts,
		interval:   interval,
	}
}

// SetOnLoads registers a callback receiving each interval's per-node
// loads (the distributor subscribes so its load-aware picker sees fresh
// L_j values). Call before Start.
func (ab *AutoBalancer) SetOnLoads(fn func(map[config.NodeID]float64)) {
	ab.mu.Lock()
	defer ab.mu.Unlock()
	ab.onLoads = fn
}

// Start launches the periodic loop.
func (ab *AutoBalancer) Start() { ab.life.Every(ab.interval, func() { ab.RunOnce() }) }

// RunOnce closes the current interval and applies the planned actions,
// returning them (tests and the console's balance-now command call this
// directly).
func (ab *AutoBalancer) RunOnce() []loadbal.Action {
	loads := ab.tracker.IntervalLoads(ab.specs)
	ab.mu.Lock()
	onLoads := ab.onLoads
	ab.mu.Unlock()
	if onLoads != nil {
		onLoads(loads)
	}
	decs := loadbal.PlanDecisions(loads, ab.controller.Table(), ab.opts)
	// Decisions made while a node incident is open are part of that
	// incident's causal story: journal them under its trace.
	trace := ab.controller.journalView().AnyIncident()
	applied, _ := ab.controller.ApplyDecisions(decs, trace)
	ab.controller.Table().ResetHits()
	actions := make([]loadbal.Action, len(decs))
	for i, d := range decs {
		actions[i] = d.Action
	}
	ab.mu.Lock()
	ab.rounds++
	ab.applied += applied
	ab.mu.Unlock()
	return actions
}

// Rounds reports completed balancing intervals and applied actions.
func (ab *AutoBalancer) Rounds() (rounds, applied int) {
	ab.mu.Lock()
	defer ab.mu.Unlock()
	return ab.rounds, ab.applied
}

// Close stops the loop and joins it.
func (ab *AutoBalancer) Close() { _ = ab.life.Close() }
