package distributor

// The request pipeline. Every request on a client connection runs the
// same stages in the same order,
//
//	parse → admit → cache → fetch → reply → finish
//
// as methods on one exchange value: serveClient calls parse and serve,
// serve calls admit and then cached or relay, both of which call fetch,
// and every reply (stream, replyCached, replyError) ends in finish. finish
// is the only emitter of per-request records, so a new exit cannot forget
// the access log, the span, the per-class stats or the load tracker.
//
// A response-cache entry is a counted reference (respcache.Entry): the
// stage that obtains one — Get, Peek, a flight's Wait, the miss leader's
// fill — releases it with a defer beside the call, so it outlives the
// reply and its finish, and distlint's pooledescape checks each one is
// released exactly once on every path.

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"time"

	"webcluster/internal/admission"
	"webcluster/internal/config"
	"webcluster/internal/conntrack"
	"webcluster/internal/content"
	"webcluster/internal/httpx"
	"webcluster/internal/journal"
	"webcluster/internal/loadbal"
	"webcluster/internal/respcache"
	"webcluster/internal/telemetry"
	"webcluster/internal/trace"
)

// errNoRoute is fetch's error for a path the URL table does not resolve.
var errNoRoute = errors.New("distributor: no route")

// Span outcomes: how a request ended.
const (
	outRelayed        = "relayed"
	outCached         = "cached"
	outNoRoute        = "no-route"
	outNoReplica      = "no-replica"
	outBadGateway     = "bad-gateway"
	outShed           = "shed"
	outRelayError     = "relay-error"
	outParseError     = "parse-error"
	outTooLarge       = "body-too-large"
	outHeaderTooLarge = "header-too-large"
	outNotImplemented = "not-implemented"
)

// exchange is the state of one client connection's current request. It
// lives in serveClient's frame — one per connection, reset by parse for
// each request — so carrying a request through the stages allocates
// nothing.
type exchange struct {
	// Fixed for the connection.
	d      *Distributor
	client net.Conn
	req    *httpx.Request
	// resp and cands are the back-end leg's storage, reused by every
	// exchange the connection makes with a back end — relay, miss leader,
	// revalidation, failover: the parsed response header and the replica
	// picker's candidate list.
	resp  httpx.Response
	cands []loadbal.NodeState

	requestState
}

// requestState is the part of an exchange that parse clears per request.
type requestState struct {
	span  *telemetry.Span // nil when tracing is off
	class admission.Class // SLO class, valid once admit has run
	// start is when service began: the request was parsed, or — under
	// admission control — was given its verdict.
	start time.Time
	// routeCost is how long the routing decision took (URL-table lookup
	// plus replica pick, or the cache lookup that made them unnecessary).
	routeCost time.Duration
	// node is the back end that answered fetch; empty until one has.
	node config.NodeID
}

// parse reads the next request off the connection. Tracing starts after
// the first request byte is visible, so keep-alive idle time between
// requests is never charged to the parse phase; a pipelined follow-up
// already sits in the read buffer, so Peek returns without touching the
// socket. A failed Peek falls through: ReadRequestInto hits the same
// condition and classifies it (clean FIN vs. torn read).
func (x *exchange) parse(br *bufio.Reader) error {
	x.requestState = requestState{}
	if x.d.tel != nil {
		if _, err := br.Peek(1); err == nil {
			x.span = x.d.tel.StartSpan(0)
		}
	}
	err := x.d.pools.ReadRequestInto(br, x.req)
	x.start = time.Now()
	x.span.MarkParse()
	if err != nil && !errors.Is(err, httpx.ErrBodyTooLarge) && !errors.Is(err, httpx.ErrTransferEncoding) &&
		!errors.Is(err, httpx.ErrHeaderTooLarge) {
		return err
	}
	// A refused body, framing or header section leaves what parsed of the
	// request named, so its records name the request like any other's.
	x.span.AdoptTrace(x.req.TraceID)
	x.span.SetRequest(x.req.Method, x.req.Path)
	if x.span != nil {
		// Propagate the trace in-band: every forwarded exchange carries
		// X-Dist-Trace, and the chosen back end echoes it with its own
		// span ID.
		x.req.TraceID = x.span.ID()
	}
	return err
}

// serve runs one parsed request through admit → cache → fetch → reply and
// reports whether the client connection remains usable.
func (x *exchange) serve() bool {
	d := x.d
	if d.adm != nil {
		// Overload control runs before any routing or cache work: a shed
		// request must cost nothing downstream. An admitted request holds
		// its class slot for the full exchange (including the cache path —
		// the slot bounds front-end concurrency, not just back-end load).
		if verdict := x.admit(); verdict != admission.Admitted {
			return x.shed(verdict)
		}
		defer d.adm.Release(x.class)
	}
	if d.cache != nil && cacheEligible(x.req) {
		return x.cached()
	}
	return x.relay()
}

// relay is the path without the cache: fetch and stream.
func (x *exchange) relay() bool {
	pc, err := x.fetch(x.req)
	if err != nil {
		return x.fail(err)
	}
	return x.stream(pc, "")
}

// admit classifies the request (X-Dist-Class header, then URL-prefix
// rules) and takes the admission decision for its class.
func (x *exchange) admit() admission.Verdict {
	adm := x.d.adm
	x.class = adm.Classify(x.req.Header.Get("X-Dist-Class"), x.req.Path)
	verdict := adm.Admit(x.class)
	x.d.journalAdmission(x.class, verdict)
	// Service starts now: time spent queued for a slot is the admission
	// ledger's to report, not load on whichever back end answers.
	x.start = time.Now()
	if b := adm.DeadlineBudget(x.class); verdict == admission.Admitted && b > 0 {
		// In-band deadline: the client's propagated deadline (if any)
		// only ever tightens; back ends compare against their own
		// clock and cancel overdue work.
		x.req.TightenDeadline(x.start.Add(b))
	}
	return verdict
}

// shed answers a request the admission ladder turned away. An interactive
// request (ShedStale) degrades to the response cache if any copy — fresh
// or expired-but-within-stale-window — exists; everything else gets the
// bottom rung, 503 with a Retry-After hint. No back-end work happens on
// this path; that is the point of shedding.
func (x *exchange) shed(verdict admission.Verdict) bool {
	if c := x.d.cache; verdict == admission.ShedStale && c != nil && cacheEligible(x.req) {
		e, state := c.Get(x.req.Path)
		defer c.Release(e)
		x.span.MarkCache()
		switch state {
		case respcache.Fresh:
			return x.replyCached(e, "HIT")
		case respcache.Stale:
			c.CountStale()
			return x.replyCached(e, "STALE")
		}
	}
	x.span.MarkRoute()
	return x.replyError(503, "overloaded\n", outShed)
}

// cached is the cache stage. A fresh entry answers the request; otherwise
// it leads the path's coalesced fetch (lead), revalidating the expired
// entry if there is one, or waits on the leader's (follow). A HEAD the
// cache cannot answer is relayed.
func (x *exchange) cached() bool {
	c, path := x.d.cache, x.req.Path
	e, state := c.Get(path)
	defer c.Release(e)
	x.span.MarkCache()
	if state == respcache.Fresh {
		return x.replyCached(e, "HIT")
	}
	if x.req.Method == "HEAD" {
		// HEAD carries no body either way; the relay path is cheap
		// and avoids leading a GET fetch for it
		return x.relay()
	}
	f, leader := c.BeginFlight(path)
	if !leader {
		return x.follow(f, e)
	}
	if state == respcache.Miss {
		// double-check after winning the flight: a previous leader may have
		// filled the entry between our Get miss and BeginFlight; Peek, so
		// the miss is counted (and the sketch bumped) once
		if p := c.Peek(path); p != nil {
			defer c.Release(p)
			f.Finish(p, nil)
			return x.replyCached(p, "HIT")
		}
	}
	return x.lead(f, e)
}

// follow answers a request that joined another's fetch with the leader's
// result, or stale — the expired entry its Get found, if any — when no
// replica answered the leader, or by relaying when the leader got nothing
// the cache could store.
func (x *exchange) follow(f *respcache.Flight, stale *respcache.Entry) bool {
	c := x.d.cache
	led, err := f.Wait()
	defer c.Release(led)
	x.span.MarkCache() // waited on the flight leader
	switch {
	case led != nil && err == nil:
		return x.replyCached(led, "HIT")
	case err != nil && stale != nil:
		// the entry is still within its stale window (Get classified it
		// Stale), so degrade
		c.CountStale()
		return x.replyCached(stale, "STALE")
	}
	// uncacheable or failed upstream response: relay. The wait was the
	// leader's exchange; this request's own service starts over, so the
	// back end it reaches is not charged for it.
	x.start = time.Now()
	return x.relay()
}

// lead performs the path's coalesced fetch and settles the flight with
// its result: a conditional GET when stale — an expired entry — exists,
// whose 304 refreshes it without moving the body again; otherwise a GET
// whose cacheable body is buffered into a new entry. What the cache
// cannot store, or would refuse, is streamed: the decision is taken at
// the response header, so a refused body is never buffered or hashed.
func (x *exchange) lead(f *respcache.Flight, stale *respcache.Entry) bool {
	d, resp := x.d, &x.resp
	var (
		pc  *conntrack.PooledConn
		err error
	)
	if stale != nil {
		pc, err = x.revalidate(stale)
	} else {
		pc, err = x.fetch(x.req)
	}
	if err != nil {
		return x.abandon(f, stale, err)
	}
	if resp.StatusCode == 304 && stale != nil {
		if err := d.settleConn(pc, resp); err != nil {
			return x.abandon(f, stale, err)
		}
		// skip the refresh if an invalidation raced the exchange: the
		// waiting requesters still get the body they asked for before the
		// mutation, but the entry must not outlive the purge
		if !f.Doomed() {
			d.cache.Refresh(stale)
		}
		f.Finish(stale, nil)
		return x.replyCached(stale, "REVALIDATED")
	}
	if !cacheableResponse(resp, d.cache.MaxEntryBytes()) {
		f.Finish(nil, nil)
		return x.stream(pc, "")
	}
	if !d.cache.Admits(x.req.Path, resp.ContentLength) {
		f.Finish(nil, nil)
		return x.stream(pc, "MISS")
	}
	e, err := d.bufferEntry(pc, resp)
	if err != nil {
		return x.abandon(f, stale, err)
	}
	defer d.cache.Release(e)
	f.Finish(e, nil)
	return x.replyCached(e, "MISS")
}

// abandon resolves a flight whose fetch produced nothing, so waiting
// requesters stop waiting, and answers the request: from stale when an
// expired copy exists and the path still routes, else as fail does.
func (x *exchange) abandon(f *respcache.Flight, stale *respcache.Entry, err error) bool {
	if err == errNoRoute {
		// not an outage: followers relay and get their own 404; the path
		// left the table, so never resurrect a stale entry
		f.Finish(nil, nil)
		return x.fail(err)
	}
	f.Finish(nil, err)
	if stale == nil {
		return x.fail(err)
	}
	// stale-on-error: an expired copy within its stale window beats a 5xx
	// when no replica can answer
	x.node = "" // no back end gets credit for an exchange that broke
	x.d.cache.CountStale()
	return x.replyCached(stale, "STALE")
}

// revalidate is fetch for an expired entry: a conditional GET carrying the
// stored validator, so a 304 means the body never moves again.
func (x *exchange) revalidate(stale *respcache.Entry) (*conntrack.PooledConn, error) {
	rr := x.d.pools.AcquireRequest()
	defer x.d.pools.ReleaseRequest(rr)
	rr.Method = "GET"
	rr.Target = x.req.Target
	rr.Path = x.req.Path
	rr.Proto = httpx.Proto11
	rr.TraceID = x.req.TraceID
	rr.Header.Set("If-None-Match", stale.Stored.ETag)
	return x.fetch(rr)
}

// fetch is the back-end leg, shared by the plain relay, the miss leader
// and the revalidation leader: route req's path, pick a replica, send req
// over a pre-forked connection and parse the response header into x.resp.
// The body is left unread on the returned connection, whose exchange
// deadline stays armed so a back end that stalls mid-body cannot pin this
// goroutine. The error is errNoRoute or wraps ErrNoBackend when no
// exchange was attempted.
func (x *exchange) fetch(req *httpx.Request) (*conntrack.PooledConn, error) {
	d := x.d
	rec, err := d.table.Route(req.Path)
	if err != nil {
		x.span.MarkRoute()
		return nil, errNoRoute
	}
	node, err := d.pickReplica(rec, "", x.cands)
	x.routeCost = time.Since(x.start)
	x.span.MarkRoute()
	if err != nil {
		return nil, err
	}
	pc, err := d.exchangeStart(node, req, &x.resp)
	if err != nil && idempotent(req) {
		// The chosen back end failed before any response header arrived:
		// fail over to another replica once before giving up. Only safe
		// for idempotent methods — re-sending a POST could apply its
		// effect twice. Nothing has been written to the client yet.
		if alt, altErr := d.pickReplica(rec, node, x.cands); altErr == nil {
			// The failover decision itself is journal-worthy: which
			// node failed, which replica took over, and the incident
			// trace that links this to the fault and the monitor's
			// down transition.
			x.journalBackend(journal.KindFailover, node, string(alt))
			node = alt
			pc, err = d.exchangeStart(alt, req, &x.resp)
		}
	}
	x.span.MarkBackend()
	if err != nil {
		x.journalBackend(journal.KindRetryExhausted, node, err.Error())
		return nil, err
	}
	x.node = node
	x.span.SetBackend(string(node), x.resp.SpanID)
	return pc, nil
}

// journalBackend records a back-end failure decision under failed's
// incident trace. The happy path never calls it, so journaling costs the
// fast path nothing.
func (x *exchange) journalBackend(kind journal.Kind, failed config.NodeID, detail string) {
	jnl := x.d.jnl
	if jnl == nil {
		return
	}
	node := string(failed)
	tr := jnl.Incident(node)
	jnl.Record(journal.Event{
		Actor:  journal.ActorDistributor,
		Kind:   kind,
		Trace:  tr,
		Node:   node,
		Path:   x.req.Path,
		Detail: detail,
	})
}

// fail answers a request whose fetch produced nothing to relay.
func (x *exchange) fail(err error) bool {
	// no back end gets credit for an exchange that broke
	x.node = ""
	switch {
	case err == errNoRoute:
		return x.replyError(404, "no route: "+x.req.Path+"\n", outNoRoute)
	case errors.Is(err, ErrNoBackend):
		return x.replyError(503, "no backend available\n", outNoReplica)
	default:
		x.replyError(502, "backend error\n", outBadGateway)
		return false
	}
}

// stream relays x.resp from the pooled back-end connection to the client,
// the client bound to x.node for as long as the two connections are
// spliced (§2.2): the header leaves with what the
// connection's reader holds, and the rest of the body moves in the kernel
// when both connections are bare TCP. A response to HEAD is its header
// alone. A non-empty verdict is the response cache's, sent as
// X-Dist-Cache: a miss the cache refused is relayed as a MISS.
func (x *exchange) stream(pc *conntrack.PooledConn, verdict string) bool {
	d, req, resp := x.d, x.req, &x.resp
	relayed, err := d.pools.Relay(x.client, resp, pc.Reader, httpx.RelayOptions{
		Proto:       req.Proto,
		ForceClose:  !req.KeepAlive(),
		Head:        req.Method == "HEAD",
		Src:         pc.Conn,
		CacheStatus: verdict,
	})
	if verdict != "" {
		x.span.SetCache(verdict)
	}
	if err != nil {
		// The header already reached the client, so the exchange cannot
		// be retried; the back-end connection has lost framing either
		// way. Drop both connections (the caller closes the client's).
		d.pool.Discard(pc)
		if errors.Is(err, httpx.ErrBodyTruncated) {
			d.truncations.Add(1)
		}
		x.finish(resp.StatusCode, relayed, outRelayError)
		return false
	}
	// A failure to settle costs only the pooled connection (settleConn
	// discards it); the client already has the whole response.
	_ = d.settleConn(pc, resp)
	x.finish(resp.StatusCode, relayed, outRelayed)
	return true
}

// replyCached replays e to the client, honoring client conditionals
// (If-None-Match / If-Modified-Since → 304) and emitting Age plus the
// X-Dist-Cache verdict. No back-end connection is bound.
func (x *exchange) replyCached(e *respcache.Entry, verdict string) bool {
	req, cache := x.req, x.d.cache
	if x.node == "" {
		// no replica was picked: reaching the entry was the routing decision
		x.routeCost = time.Since(x.start)
	}
	notMod := false
	if inm := req.Header.Get("If-None-Match"); inm != "" {
		notMod = httpx.ETagMatch(inm, e.Stored.ETag)
	} else if ims := req.Header.Get("If-Modified-Since"); ims != "" && e.Stored.LastModified != "" {
		if ims == e.Stored.LastModified {
			notMod = true
		} else if t, err := httpx.ParseHTTPTime(ims); err == nil {
			if lm, lerr := httpx.ParseHTTPTime(e.Stored.LastModified); lerr == nil {
				notMod = !lm.After(t)
			}
		}
	}
	code, sent := e.Stored.StatusCode, int64(len(e.Stored.Body))
	if notMod {
		code, sent = 304, 0
		cache.CountNotModified()
	} else if req.Method == "HEAD" {
		sent = 0
	}
	//distlint:ignore cowdiscipline ServeStored borrows the published snapshot read-only; nothing writes through the pointer
	err := httpx.ServeStored(x.client, &e.Stored, httpx.ServeOptions{
		Proto:       req.Proto,
		Head:        req.Method == "HEAD",
		NotModified: notMod,
		AgeSeconds:  e.AgeSeconds(cache.Now()),
		CacheStatus: verdict,
		ForceClose:  !req.KeepAlive(),
	})
	x.span.SetCache(verdict)
	x.finish(code, sent, outCached)
	return err == nil && req.KeepAlive()
}

// replyError writes a locally generated answer — the 400/404/413/431/501/
// 502/503 family — and reports whether the client connection remains usable.
func (x *exchange) replyError(status int, body, outcome string) bool {
	resp := httpx.NewResponse(x.req.Proto, status, []byte(body))
	if outcome == outShed {
		resp.Header.Set("Retry-After", x.d.adm.RetryAfter())
	}
	err := httpx.WriteResponse(x.client, resp)
	x.finish(status, int64(len(body)), outcome)
	return err == nil && x.req.KeepAlive()
}

// finish emits every per-request record, once: the access-log line, the
// span's verdict, the per-class stats, the routing counters, and — when a
// back end did the work, whether for a relay, a cold miss or a
// revalidation — the §3.3 load charge against that node.
func (x *exchange) finish(status int, bytes int64, outcome string) {
	d := x.d
	procTime := time.Since(x.start)
	class := content.Classify(x.req.Path)
	switch outcome {
	case outRelayed, outCached:
		d.routed.Add(1)
		d.relayNs.Add(int64(x.routeCost))
		if x.node != "" {
			d.tracker.Record(x.node, class, procTime)
		}
	case outNoRoute, outNoReplica:
		d.noRoute.Add(1)
	}
	x.logAccess(status, bytes)
	name := class.String()
	x.span.MarkReply()
	x.span.SetClass(name)
	x.span.SetStatus(status)
	x.span.SetBytes(bytes)
	x.closeSpan(outcome)
	cs := d.stats.Class(name)
	cs.Requests.Inc()
	cs.Bytes.Add(bytes)
	cs.Latency.Observe(procTime)
	if status >= 400 {
		cs.Errors.Inc()
	}
}

// closeSpan stamps the terminal outcome and hands the span back to the
// telemetry ring (nil-safe).
func (x *exchange) closeSpan(outcome string) {
	x.span.SetOutcome(outcome)
	x.d.tel.FinishSpan(x.span)
	x.span = nil
}

// logAccess appends one CLF line to the access log, if configured.
func (x *exchange) logAccess(status int, bytes int64) {
	d := x.d
	if d.accessLog == nil {
		return
	}
	// The client's address is parsed here, only when a line is written.
	ip := x.client.RemoteAddr().String()
	if host, _, err := net.SplitHostPort(ip); err == nil {
		ip = host
	}
	entry := trace.Entry{
		ClientIP: ip,
		Time:     time.Now(),
		Method:   x.req.Method,
		Path:     x.req.Target,
		Proto:    x.req.Proto,
		Status:   status,
		Bytes:    bytes,
	}
	d.logMu.Lock()
	defer d.logMu.Unlock()
	_, _ = fmt.Fprintln(d.accessLog, entry.String())
}
