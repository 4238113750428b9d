package main

import (
	"fmt"
	"time"

	"webcluster/internal/config"
	"webcluster/internal/mgmt"
)

// consoleRequest renders a scripted operation as the console op the
// administrator would send.
func consoleRequest(op churnOp) mgmt.ConsoleRequest {
	req := mgmt.ConsoleRequest{Op: op.kind, Path: op.path}
	switch op.kind {
	case opInsert:
		req.Data, req.Size, req.Nodes = op.data, int64(len(op.data)), []config.NodeID{op.node}
	case opUpdate:
		req.Data = op.data
	case opReplicate:
		req.Source, req.Target = op.source, op.node
	case opOffload:
		req.Node = op.node
	case opRename:
		req.NewPath = op.newPath
	}
	return req
}

// mgmtResult is the management side of one window.
type mgmtResult struct {
	attempted int
	failed    int
	firstErr  error
	// latency is due-to-done per successful op: an op that starts late
	// because its predecessor overran is charged the wait.
	latency []time.Duration
	// late is how far behind schedule the generator itself sent each op.
	late []time.Duration
}

// churnRunner plays the script open-loop across the windows of one run,
// keeping its place so a second window continues where the first ended.
type churnRunner struct {
	ops  []churnOp
	next int
}

// run issues operations at churnRate from epoch for d over the console
// connection. After each op returns OK its probes go to the reader, whose
// next requests must see the new state; the runner waits for the verdict
// so a later op on the same path cannot overtake the check.
func (c *churnRunner) run(cl *cluster, epoch time.Time, d time.Duration, probes chan<- []probe, acks <-chan int, gone <-chan struct{}) mgmtResult {
	var res mgmtResult
	gap := time.Second / churnRate
	for i := 0; c.next < len(c.ops); i++ {
		due := epoch.Add(time.Duration(i) * gap)
		if due.Sub(epoch) >= d {
			break
		}
		time.Sleep(time.Until(due)) // pacing: the open-loop schedule
		op := c.ops[c.next]
		c.next++
		res.attempted++
		sent := time.Now()
		_, err := cl.console.Do(consoleRequest(op))
		if err != nil {
			res.failed++
			if res.firstErr == nil {
				res.firstErr = fmt.Errorf("%s %s: %w", op.kind, op.path, err)
			}
			continue
		}
		res.latency = append(res.latency, time.Since(due))
		res.late = append(res.late, sent.Sub(due))
		select {
		case probes <- op.probes:
			<-acks
		case <-gone:
			return res
		}
	}
	time.Sleep(time.Until(epoch.Add(d)))
	return res
}

// applyOp performs a scripted operation on an in-process controller, the
// way the console server would.
func applyOp(ctrl *mgmt.Controller, op churnOp) error {
	switch op.kind {
	case opInsert:
		return ctrl.Insert(tableObject(op.path, len(op.data)), op.data, op.node)
	case opUpdate:
		return ctrl.Update(op.path, op.data)
	case opReplicate:
		return ctrl.Replicate(op.path, op.source, op.node)
	case opOffload:
		return ctrl.Offload(op.path, op.node)
	case opRename:
		return ctrl.Rename(op.path, op.newPath)
	case opPurge:
		_, err := ctrl.Purge(op.path)
		return err
	case opDelete:
		return ctrl.Delete(op.path)
	}
	return fmt.Errorf("unknown churn op %q", op.kind)
}
