package journal

// Actor identifies which control-plane component recorded an event.
type Actor uint8

const (
	// ActorPlanner is the §3.3 load balancer producing decisions.
	ActorPlanner Actor = iota + 1
	// ActorController is the management controller executing plans.
	ActorController
	// ActorDistributor is the request-routing front end.
	ActorDistributor
	// ActorMonitor is the liveness watcher.
	ActorMonitor
	// ActorFaults is the chaos injector.
	ActorFaults
	// ActorAgent is a node-side management broker.
	ActorAgent
	// ActorRecorder is the flight recorder itself.
	ActorRecorder
)

// String returns the actor's wire label.
func (a Actor) String() string {
	switch a {
	case ActorPlanner:
		return "planner"
	case ActorController:
		return "controller"
	case ActorDistributor:
		return "distributor"
	case ActorMonitor:
		return "monitor"
	case ActorFaults:
		return "faults"
	case ActorAgent:
		return "agent"
	case ActorRecorder:
		return "recorder"
	}
	return "unknown"
}

// Kind classifies what happened. The A/B/F payload fields carry
// kind-specific readings (documented per constant) so the hot record
// path never formats strings.
type Kind uint8

const (
	// KindPlanReplicate is a planner decision to add a copy.
	// A = interval hits of the document, F = load CV the planner saw.
	KindPlanReplicate Kind = iota + 1
	// KindPlanOffload is a planner decision to drop a copy.
	// A = interval hits, F = load CV.
	KindPlanOffload
	// KindApply is a controller plan executed against the cluster.
	KindApply
	// KindApplyFail is a controller plan that failed mid-execution.
	KindApplyFail
	// KindPurge is a coherence invalidation after a mutation.
	// A = cache entries dropped.
	KindPurge
	// KindFailover is the distributor re-routing a request off a dead
	// replica. Node = failed node, Detail = replacement node.
	KindFailover
	// KindRetryExhausted is the distributor giving up on a request
	// after its retry budget (the client saw a 502/503).
	KindRetryExhausted
	// KindAdmissionShed is a service class entering overload shedding.
	KindAdmissionShed
	// KindAdmissionRecover is a class leaving shedding.
	KindAdmissionRecover
	// KindNodeDown is a monitor up→down transition. Detail = probe error.
	KindNodeDown
	// KindNodeUp is a monitor down→up transition.
	KindNodeUp
	// KindFault is an injected fault firing for the first time at a
	// point under the current rule generation. A = rule generation.
	KindFault
	// KindAgentOp is a node-side broker executing a mutating op.
	KindAgentOp
	// KindSnapshot is the flight recorder dumping a bundle.
	// Detail = trigger reason.
	KindSnapshot
	// KindBrokerRedial is the controller dialing a node's broker again
	// after a management call lost the connection. Node = the node,
	// Detail = "reconnected" or the dial error.
	KindBrokerRedial
)

// String returns the kind's wire label.
func (k Kind) String() string {
	switch k {
	case KindPlanReplicate:
		return "plan-replicate"
	case KindPlanOffload:
		return "plan-offload"
	case KindApply:
		return "apply"
	case KindApplyFail:
		return "apply-fail"
	case KindPurge:
		return "purge"
	case KindFailover:
		return "failover"
	case KindRetryExhausted:
		return "retry-exhausted"
	case KindAdmissionShed:
		return "admission-shed"
	case KindAdmissionRecover:
		return "admission-recover"
	case KindNodeDown:
		return "node-down"
	case KindNodeUp:
		return "node-up"
	case KindFault:
		return "fault"
	case KindAgentOp:
		return "agent-op"
	case KindSnapshot:
		return "snapshot"
	case KindBrokerRedial:
		return "broker-redial"
	}
	return "unknown"
}

// Event is one journal entry. It is a flat value type — no pointers, no
// interfaces — so recording is a single struct copy into a ring slot
// and a snapshot is a memcpy out. Strings are prepared by the caller:
// the journal itself never formats, concatenates, or allocates.
type Event struct {
	// Seq is the journal-local monotonic sequence number, stamped by
	// Record. Merged streams order by (Time, Src, Seq).
	Seq uint64 `json:"seq"`
	// Time is the record wall-clock time in Unix nanoseconds.
	Time int64 `json:"time"`
	// Trace links causally related events: a fault, the failovers it
	// caused, the monitor transition, the repair decisions, and the
	// purges they triggered all share the incident's trace ID.
	Trace uint64 `json:"trace,omitempty"`
	// Actor and Kind say who recorded what.
	Actor Actor `json:"actor"`
	Kind  Kind  `json:"kind"`
	// Src is the node label of the journal that recorded the event,
	// stamped by Record; it disambiguates merged cluster streams.
	Src string `json:"src,omitempty"`
	// Node is the subject node ("n3" went down, failover off "n1").
	Node string `json:"node,omitempty"`
	// Path is the subject document, when the event concerns one.
	Path string `json:"path,omitempty"`
	// Detail is free-form, kind-specific context (probe error text,
	// planner reason, replacement node).
	Detail string `json:"detail,omitempty"`
	// A, B, F are kind-specific numeric payloads (see Kind constants).
	A int64   `json:"a,omitempty"`
	B int64   `json:"b,omitempty"`
	F float64 `json:"f,omitempty"`
}
