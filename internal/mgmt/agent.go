// Package mgmt implements the content management system of §3: per-node
// broker daemons, the agent framework with download-on-demand dispatch,
// the controller that orchestrates management operations and auto-
// replication, and the remote-console client.
//
// In the paper, agents are Java classes that brokers download and execute
// ("downloaded executable content"). Go has no portable runtime class
// loading, so the reproduction models mobile code faithfully at the
// protocol level: brokers start with an empty agent registry and only the
// bootstrap install capability; when the controller dispatches an agent the
// broker does not know, the broker answers need-code, the controller ships
// the agent's spec, and the broker installs it before retrying. Management
// therefore exercises the same install-on-first-use flow the paper
// describes, and a broker accumulates exactly the agents its node needed.
package mgmt

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"webcluster/internal/backend"
	"webcluster/internal/config"
	"webcluster/internal/journal"
	"webcluster/internal/monitor"
	"webcluster/internal/telemetry"
)

// Op is a built-in agent behaviour. Agent specs bind a name to an op; the
// spec is what travels from the controller's repository to a broker.
type Op int

// Ops.
const (
	// OpPing answers liveness probes.
	OpPing Op = iota + 1
	// OpStatus reports the node's monitor.NodeStatus.
	OpStatus
	// OpDeleteFile removes a file from the node's local store.
	OpDeleteFile
	// OpStoreFile places a file (bytes or synthetic size) on the node.
	OpStoreFile
	// OpFetchFile returns a file's bytes (what a pulling broker asks its
	// source for).
	OpFetchFile
	// OpListFiles returns all stored paths.
	OpListFiles
	// OpReplaceFile atomically replaces a file's contents (the update
	// path for mutable content: Store.Replace + cache invalidation).
	OpReplaceFile
	// OpChecksum returns the SHA-256 of a stored file, letting the
	// controller audit replica consistency without transferring bytes.
	OpChecksum
	// OpTelemetry returns the node's telemetry report (metrics snapshot
	// plus slowest recent spans) for the single-system-image stats plane.
	OpTelemetry
	// OpJournal returns the node's recent decision-journal events — only
	// those about Args.Path when it is set — for the controller's merged
	// cluster journal.
	OpJournal
	// OpPullFile makes the node fetch a file from the source broker named
	// in Args (or copy it locally when none is) and store it, provided it
	// has the length Args.Size expects: a replica moves node to node and
	// the controller sees an envelope.
	OpPullFile
)

// String names the op.
func (o Op) String() string {
	switch o {
	case OpPing:
		return "ping"
	case OpStatus:
		return "status"
	case OpDeleteFile:
		return "delete-file"
	case OpStoreFile:
		return "store-file"
	case OpFetchFile:
		return "fetch-file"
	case OpListFiles:
		return "list-files"
	case OpReplaceFile:
		return "replace-file"
	case OpChecksum:
		return "checksum"
	case OpTelemetry:
		return "telemetry"
	case OpJournal:
		return "journal"
	case OpPullFile:
		return "pull-file"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Spec is the transferable description of an agent: the unit of "mobile
// code" the controller's repository holds and brokers install on demand.
type Spec struct {
	Name string `json:"name"`
	Op   Op     `json:"op"`
}

// BuiltinSpecs returns the standard agent repository contents: one agent
// per management function, named as the controller dispatches them.
func BuiltinSpecs() []Spec {
	ops := []Op{OpPing, OpStatus, OpDeleteFile, OpStoreFile, OpFetchFile, OpListFiles, OpReplaceFile, OpChecksum, OpTelemetry, OpJournal, OpPullFile}
	specs := make([]Spec, len(ops))
	for i, op := range ops {
		specs[i] = Spec{Name: op.String(), Op: op}
	}
	return specs
}

// Args carries an agent invocation's parameters.
type Args struct {
	Path string `json:"path,omitempty"`
	// Data is the object's bytes for store-file and replace-file. It
	// travels as the frame's payload, never inside the JSON envelope.
	Data []byte `json:"-"`
	// Size requests synthetic placement of Size bytes when Data is nil. To
	// pull-file it is the length the table lists for Path: a file of any
	// other length is not stored (zero: not checked).
	Size int64 `json:"size,omitempty"`
	// Dest is the path pull-file stores under when it is not Path (rename).
	Dest string `json:"dest,omitempty"`
	// Source is the address of the broker pull-file fetches Path from;
	// empty means Path is on this node already.
	Source string `json:"source,omitempty"`
}

// Result carries an agent's outcome.
type Result struct {
	Message string `json:"message,omitempty"`
	// Data is fetch-file's answer; like Args.Data it rides as the frame's
	// payload.
	Data      []byte              `json:"-"`
	Paths     []string            `json:"paths,omitempty"`
	Status    *monitor.NodeStatus `json:"status,omitempty"`
	Telemetry *telemetry.Report   `json:"telemetry,omitempty"`
	Journal   []journal.Event     `json:"journal,omitempty"`
}

// Env is the node-local environment an agent executes against.
type Env struct {
	Node  config.NodeID
	Store backend.Store
	// Server is the co-located web server, when one exists, for status
	// reporting; nil on a pure storage node.
	Server *backend.Server
	// Telemetry is the node's observability layer for OpTelemetry
	// scrapes. Defaults to Server's when nil.
	Telemetry *telemetry.Telemetry
	// Journal is the node's decision journal; mutating ops record into
	// it and OpJournal scrapes it. Nil disables both (journal methods
	// are nil-safe).
	Journal *journal.Journal
	Now     func() time.Time
	// peers is the owning broker's clients to other brokers, what
	// pull-file fetches through; NewBroker sets it.
	peers *peerClients
}

// telemetryReportSpans caps how many spans one OpTelemetry scrape ships
// (the slowest ones; the console merges and re-caps across nodes).
const telemetryReportSpans = 32

// journalReportEvents caps how many events one OpJournal scrape ships
// (the newest ones about Args.Path, or about anything when it is empty;
// the controller merges across nodes).
const journalReportEvents = 256

// journalAgentOp records one successful mutating agent op, and the
// bytes it stored, into the node's journal (a no-op when the node has
// none).
func journalAgentOp(env Env, opName, path string, stored int64) {
	env.Journal.Record(journal.Event{
		Actor:  journal.ActorAgent,
		Kind:   journal.KindAgentOp,
		Node:   string(env.Node),
		Path:   path,
		Detail: opName,
		A:      stored,
	})
}

// ExecuteOp runs one agent op in env.
func ExecuteOp(op Op, env Env, args Args) (Result, error) {
	now := env.Now
	if now == nil {
		now = time.Now
	}
	switch op {
	case OpPing:
		return Result{Message: "pong"}, nil

	case OpStatus:
		st := monitor.NodeStatus{
			Node:        string(env.Node),
			CollectedAt: now(),
		}
		if env.Store != nil {
			st.StoreObjects = len(env.Store.List())
			st.StoreBytes = env.Store.UsedBytes()
		}
		if env.Server != nil {
			st.ActiveRequests = env.Server.ActiveRequests()
			cs := env.Server.PageCacheStats()
			st.CacheHits = cs.Hits
			st.CacheMisses = cs.Misses
			st.CacheHitRate = cs.HitRate()
			var served int64
			var latency telemetry.HistSnapshot
			for _, class := range env.Server.Stats().Classes() {
				stats := env.Server.Stats().Class(class)
				served += stats.Requests.Value()
				latency.Merge(stats.Latency.Snapshot())
			}
			st.RequestsServed = served
			st.LatencyP50Ns = int64(latency.Quantile(0.5))
			st.LatencyP99Ns = int64(latency.Quantile(0.99))
		}
		return Result{Status: &st}, nil

	case OpDeleteFile:
		if env.Store == nil {
			return Result{}, fmt.Errorf("mgmt: node %s has no store", env.Node)
		}
		if err := env.Store.Delete(args.Path); err != nil {
			return Result{}, fmt.Errorf("mgmt: delete %q: %w", args.Path, err)
		}
		if env.Server != nil {
			env.Server.InvalidateCache(args.Path)
		}
		journalAgentOp(env, "delete-file", args.Path, 0)
		return Result{Message: "deleted " + args.Path}, nil

	case OpStoreFile:
		if env.Store == nil {
			return Result{}, fmt.Errorf("mgmt: node %s has no store", env.Node)
		}
		if args.Data == nil && args.Size > 0 {
			if ss, ok := env.Store.(*backend.SyntheticStore); ok {
				if err := ss.PlaceSized(args.Path, args.Size); err != nil {
					return Result{}, fmt.Errorf("mgmt: place %q: %w", args.Path, err)
				}
				if env.Server != nil {
					env.Server.InvalidateCache(args.Path)
				}
				journalAgentOp(env, "store-file", args.Path, args.Size)
				return Result{Message: "placed " + args.Path}, nil
			}
			// Materialize synthetic bytes for stores that keep data.
			args.Data = backend.SynthesizeBody(args.Path, args.Size)
		}
		if err := env.Store.Put(args.Path, args.Data); err != nil {
			return Result{}, fmt.Errorf("mgmt: store %q: %w", args.Path, err)
		}
		if env.Server != nil {
			env.Server.InvalidateCache(args.Path)
		}
		journalAgentOp(env, "store-file", args.Path, int64(len(args.Data)))
		return Result{Message: "stored " + args.Path}, nil

	case OpFetchFile:
		if env.Store == nil {
			return Result{}, fmt.Errorf("mgmt: node %s has no store", env.Node)
		}
		data, err := env.Store.Fetch(args.Path)
		if err != nil {
			return Result{}, fmt.Errorf("mgmt: fetch %q: %w", args.Path, err)
		}
		return Result{Data: data}, nil

	case OpListFiles:
		if env.Store == nil {
			return Result{}, fmt.Errorf("mgmt: node %s has no store", env.Node)
		}
		return Result{Paths: env.Store.List()}, nil

	case OpReplaceFile:
		if env.Store == nil {
			return Result{}, fmt.Errorf("mgmt: node %s has no store", env.Node)
		}
		data := args.Data
		if data == nil && args.Size > 0 {
			data = backend.SynthesizeBody(args.Path, args.Size)
		}
		if err := env.Store.Replace(args.Path, data); err != nil {
			return Result{}, fmt.Errorf("mgmt: replace %q: %w", args.Path, err)
		}
		if env.Server != nil {
			env.Server.InvalidateCache(args.Path)
		}
		journalAgentOp(env, "replace-file", args.Path, int64(len(data)))
		return Result{Message: "replaced " + args.Path}, nil

	case OpPullFile:
		if env.Store == nil {
			return Result{}, fmt.Errorf("mgmt: node %s has no store", env.Node)
		}
		dest := args.Dest
		if dest == "" {
			dest = args.Path
		}
		var data []byte
		var err error
		if args.Source == "" {
			// Stored bytes are immutable, so on a store that keeps slices
			// both names share one: a rename copies nothing.
			data, err = env.Store.Fetch(args.Path)
		} else {
			data, err = env.peers.fetch(args.Source, args.Path)
		}
		if err != nil {
			return Result{}, fmt.Errorf("mgmt: pull %q: %w", args.Path, err)
		}
		if args.Size > 0 && int64(len(data)) != args.Size {
			return Result{}, fmt.Errorf("mgmt: pull %q: source holds %d bytes, the table lists %d", args.Path, len(data), args.Size)
		}
		if err := env.Store.Put(dest, data); err != nil {
			return Result{}, fmt.Errorf("mgmt: pull %q: %w", args.Path, err)
		}
		if env.Server != nil {
			env.Server.InvalidateCache(dest)
		}
		journalAgentOp(env, "pull-file", dest, int64(len(data)))
		return Result{Message: fmt.Sprintf("pulled %s (%d bytes)", dest, len(data))}, nil

	case OpChecksum:
		if env.Store == nil {
			return Result{}, fmt.Errorf("mgmt: node %s has no store", env.Node)
		}
		data, err := env.Store.Fetch(args.Path)
		if err != nil {
			return Result{}, fmt.Errorf("mgmt: checksum %q: %w", args.Path, err)
		}
		sum := sha256.Sum256(data)
		return Result{Message: hex.EncodeToString(sum[:])}, nil

	case OpTelemetry:
		tel := env.Telemetry
		if tel == nil && env.Server != nil {
			tel = env.Server.Telemetry()
		}
		if tel == nil {
			return Result{}, fmt.Errorf("mgmt: node %s has no telemetry", env.Node)
		}
		report := tel.Report(telemetryReportSpans)
		return Result{Telemetry: &report}, nil

	case OpJournal:
		if env.Journal == nil {
			return Result{}, fmt.Errorf("mgmt: node %s has no journal", env.Node)
		}
		return Result{Journal: env.Journal.Snapshot(args.Path, journalReportEvents)}, nil

	default:
		return Result{}, fmt.Errorf("mgmt: unknown op %v", op)
	}
}

// Broker envelopes (the JSON header of a wire.go frame).

// request is one broker-bound message: either an agent invocation or an
// agent installation.
type request struct {
	ID      int64  `json:"id"`
	Agent   string `json:"agent,omitempty"`
	Args    *Args  `json:"args,omitempty"`
	Install *Spec  `json:"install,omitempty"`
	// Payload says the frame's payload is Args.Data (which may be empty).
	Payload bool `json:"payload,omitempty"`
}

// response is the broker's reply.
type response struct {
	ID     int64   `json:"id"`
	OK     bool    `json:"ok"`
	Error  string  `json:"error,omitempty"`
	Result *Result `json:"result,omitempty"`
	// NeedCode signals the broker lacks the agent and wants its spec.
	NeedCode bool `json:"needCode,omitempty"`
	// Payload says the frame's payload is Result.Data.
	Payload bool `json:"payload,omitempty"`
}
