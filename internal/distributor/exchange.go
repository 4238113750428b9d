package distributor

// The request pipeline. Every request on a client connection runs the
// same stages in the same order,
//
//	parse → admit → cache → fetch → reply → finish
//
// as methods on one exchange value: serveClient calls parse and serve,
// serve calls admit, lookup and fetch, and every reply (stream,
// replyCached, replyError) ends in finish. finish is the only emitter of
// per-request records, so a new exit cannot forget the access log, the
// span, the per-class stats or the load tracker.

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
	"webcluster/internal/respcache"
	"webcluster/internal/telemetry"
	"webcluster/internal/trace"
)

// errNoRoute is fetch's error for a path the URL table does not resolve.
var errNoRoute = errors.New("distributor: no route")

// Span outcomes: how a request ended.
const (
	outRelayed    = "relayed"
	outCached     = "cached"
	outNoRoute    = "no-route"
	outNoReplica  = "no-replica"
	outBadGateway = "bad-gateway"
	outShed       = "shed"
	outRelayError = "relay-error"
	outParseError = "parse-error"
	outTooLarge   = "body-too-large"
)

// exchange is the state of one client connection's current request. It
// lives in serveClient's frame — one per connection, reset by parse for
// each request — so carrying a request through the stages allocates
// nothing.
type exchange struct {
	// Fixed for the connection.
	d      *Distributor
	client net.Conn
	key    conntrack.ClientKey
	req    *httpx.Request

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
	// flight is set when this request leads the path's coalesced fetch,
	// stale when that fetch revalidates an expired entry.
	flight *respcache.Flight
	stale  *respcache.Entry
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
	err := httpx.ReadRequestInto(br, x.req)
	x.start = time.Now()
	x.span.MarkParse()
	if err != nil && !errors.Is(err, httpx.ErrBodyTooLarge) {
		return err
	}
	// A refused body leaves the request line and headers parsed, so its
	// records name the request like any other's.
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
		if e, verdict := x.lookup(); e != nil {
			return x.replyCached(e, verdict)
		}
	}
	var (
		pc   *conntrack.PooledConn
		resp *httpx.Response
		err  error
	)
	if x.stale != nil {
		pc, resp, err = x.revalidate()
	} else {
		pc, resp, err = x.fetch(x.req)
	}
	if err != nil {
		return x.fail(err)
	}
	return x.reply(pc, resp)
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

// lookup is the cache stage. It returns the entry to answer from and its
// X-Dist-Cache verdict, or nil when the request needs a back end: as the
// leader of the path's coalesced fetch (x.flight set, x.stale the expired
// entry to revalidate, if there is one) or, where the cache declines, as a
// plain relay. The leader performs one back-end exchange and every
// concurrent requester shares its result.
func (x *exchange) lookup() (*respcache.Entry, string) {
	c, path := x.d.cache, x.req.Path
	e, state := c.Get(path)
	x.span.MarkCache()
	if state == respcache.Fresh {
		return e, "HIT"
	}
	if x.req.Method == "HEAD" {
		// HEAD carries no body either way; the relay path is cheap
		// and avoids leading a GET fetch for it
		return nil, ""
	}
	f, leader := c.BeginFlight(path)
	if !leader {
		led, err := f.Wait()
		x.span.MarkCache() // waited on the flight leader
		switch {
		case led != nil && err == nil:
			return led, "HIT"
		case err != nil && e != nil:
			// no replica answered the leader; the entry is still within
			// its stale window (Get classified it Stale), so degrade
			c.CountStale()
			return e, "STALE"
		}
		// uncacheable or failed upstream response: relay. The wait was the
		// leader's exchange; this request's own service starts over, so the
		// back end it reaches is not charged for it.
		x.start = time.Now()
		return nil, ""
	}
	if state == respcache.Miss {
		// double-check after winning the flight: a previous leader may have
		// filled the entry between our Get miss and BeginFlight
		if e, st := c.Get(path); st == respcache.Fresh {
			f.Finish(e, nil)
			return e, "HIT"
		}
	}
	x.flight, x.stale = f, e
	return nil, ""
}

// revalidate is fetch for an expired entry: a conditional GET carrying the
// stored validator, so a 304 means the body never moves again.
func (x *exchange) revalidate() (*conntrack.PooledConn, *httpx.Response, error) {
	rr := x.d.pools.AcquireRequest()
	defer x.d.pools.ReleaseRequest(rr)
	rr.Method = "GET"
	rr.Target = x.req.Target
	rr.Path = x.req.Path
	rr.Proto = httpx.Proto11
	rr.TraceID = x.req.TraceID
	rr.Header.Set("If-None-Match", x.stale.Stored.ETag)
	return x.fetch(rr)
}

// fetch is the back-end leg, shared by the plain relay, the miss leader
// and the revalidation leader: route req's path, pick a replica, send req
// over a pre-forked connection and parse the response header. The body is
// left unread on the returned connection, whose exchange deadline stays
// armed so a back end that stalls mid-body cannot pin this goroutine. The
// error is errNoRoute or wraps ErrNoBackend when no exchange was attempted.
func (x *exchange) fetch(req *httpx.Request) (*conntrack.PooledConn, *httpx.Response, error) {
	d := x.d
	rec, err := d.table.Route(req.Path)
	if err != nil {
		x.span.MarkRoute()
		return nil, nil, errNoRoute
	}
	node, err := d.pickReplica(rec, "")
	x.routeCost = time.Since(x.start)
	x.span.MarkRoute()
	if err != nil {
		return nil, nil, err
	}
	pc, resp, err := d.exchangeStart(node, req)
	if err != nil && idempotent(req) {
		// The chosen back end failed before any response header arrived:
		// fail over to another replica once before giving up. Only safe
		// for idempotent methods — re-sending a POST could apply its
		// effect twice. Nothing has been written to the client yet.
		if alt, altErr := d.pickReplica(rec, node); altErr == nil {
			// The failover decision itself is journal-worthy: which
			// node failed, which replica took over, and the incident
			// trace that links this to the fault and the monitor's
			// down transition.
			x.journalBackend(journal.KindFailover, node, string(alt))
			node = alt
			pc, resp, err = d.exchangeStart(alt, req)
		}
	}
	x.span.MarkBackend()
	if err != nil {
		x.journalBackend(journal.KindRetryExhausted, node, err.Error())
		return nil, nil, err
	}
	x.node = node
	x.span.SetBackend(string(node), resp.SpanID)
	return pc, resp, nil
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

// fail answers a request whose fetch produced nothing to relay, resolving
// the flight it led (if any) so waiting requesters stop waiting.
func (x *exchange) fail(err error) bool {
	// no back end gets credit for an exchange that broke
	x.node = ""
	if x.flight != nil {
		if err == errNoRoute {
			x.flight.Finish(nil, nil) // not an outage: followers relay and get their own 404
		} else {
			x.flight.Finish(nil, err)
		}
	}
	switch {
	case err == errNoRoute:
		// the path left the table; never resurrect a stale entry
		return x.replyError(404, "no route: "+x.req.Path+"\n", outNoRoute)
	case x.stale != nil:
		// stale-on-error: an expired copy within its stale window beats
		// a 5xx when no replica can answer
		x.d.cache.CountStale()
		return x.replyCached(x.stale, "STALE")
	case errors.Is(err, ErrNoBackend):
		return x.replyError(503, "no backend available\n", outNoReplica)
	default:
		x.replyError(502, "backend error\n", outBadGateway)
		return false
	}
}

// reply delivers a fetched response. A plain relay streams it; a flight
// leader settles the flight first — refreshing the revalidated entry on a
// 304, buffering a cacheable body into a new entry — and streams only
// what the cache cannot store.
func (x *exchange) reply(pc *conntrack.PooledConn, resp *httpx.Response) bool {
	d, f := x.d, x.flight
	if f == nil {
		return x.stream(pc, resp)
	}
	if resp.StatusCode == 304 && x.stale != nil {
		if err := d.settleConn(pc, resp); err != nil {
			return x.fail(err)
		}
		// skip the refresh if an invalidation raced the exchange: the
		// waiting requesters still get the body they asked for before the
		// mutation, but the entry must not outlive the purge
		if !f.Doomed() {
			d.cache.Refresh(x.stale)
		}
		f.Finish(x.stale, nil)
		return x.replyCached(x.stale, "REVALIDATED")
	}
	if !cacheableResponse(resp, d.cache.MaxEntryBytes()) {
		f.Finish(nil, nil)
		return x.stream(pc, resp)
	}
	e, err := d.bufferEntry(pc, resp)
	if err != nil {
		return x.fail(err)
	}
	f.Finish(e, nil)
	return x.replyCached(e, "MISS")
}

// stream relays resp's body from the pooled back-end connection to the
// client through a pooled buffer, with the mapping entry bound to the
// back end for as long as the two connections are spliced (§2.2).
func (x *exchange) stream(pc *conntrack.PooledConn, resp *httpx.Response) bool {
	d, req := x.d, x.req
	// The entry was installed by this goroutine and only this goroutine
	// advances it, so the bookkeeping transitions cannot fail here.
	_ = d.mapping.Bind(x.key, x.node)
	_, _ = d.mapping.Advance(x.key, conntrack.EventRequestBound)
	relayed, err := d.pools.RelayResponse(x.client, resp, pc.Reader, req.Proto, !req.KeepAlive())
	if err != nil {
		// The header already reached the client, so the exchange cannot
		// be retried; the back-end connection has lost framing either
		// way. Drop both connections (the caller resets the mapping).
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
	_, _ = d.mapping.Advance(x.key, conntrack.EventRequestDone)
	x.finish(resp.StatusCode, relayed, outRelayed)
	return true
}

// replyCached replays e to the client, honoring client conditionals
// (If-None-Match / If-Modified-Since → 304) and emitting Age plus the
// X-Dist-Cache verdict. No back-end connection is bound, so the mapping
// entry simply stays ESTABLISHED.
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

// replyError writes a locally generated answer — the 400/404/413/502/503
// family — and reports whether the client connection remains usable.
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
	entry := trace.Entry{
		ClientIP: x.key.IP,
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
