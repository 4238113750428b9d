package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"time"

	"webcluster/internal/config"
)

// clientConns is the number of closed-loop keep-alive connections the
// load generator drives. Two keep one request in the cluster while the
// other's answer is being checked, so neither the generator's CPU nor the
// cluster's sits idle waiting for the other (pin.go gives each its own);
// runs with 1, 3, 4 and 6 repeated no better (README, "What the box
// allows").
const clientConns = 2

// maxBody bounds a response body the client will read.
const maxBody = 2 << 20

// answer is one parsed response.
type answer struct {
	status   int
	length   int
	servedBy string
	body     []byte // aliases the connection's buffer; valid until the next request
}

// httpConn is one keep-alive client connection with its own response
// parser. The parser is the harness's own, not internal/httpx: the
// client must not trust the framing of the system it checks, and a
// change to httpx must not speed up the load generator.
type httpConn struct {
	conn net.Conn
	br   *bufio.Reader
	buf  []byte
}

func dialHTTP(addr string) (*httpConn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	// one deadline for the connection's whole life (a run is at most a
	// minute): a wedged cluster fails the run instead of hanging it
	if err := c.SetDeadline(time.Now().Add(5 * time.Minute)); err != nil {
		return nil, err
	}
	return &httpConn{conn: c, br: bufio.NewReaderSize(c, 16<<10), buf: make([]byte, 16<<10)}, nil
}

func (h *httpConn) close() { _ = h.conn.Close() }

// exchange sends one prepared request and reads the response. sent and
// first are the instants the request had left and the first response byte
// had arrived.
func (h *httpConn) exchange(request []byte) (a answer, sent, first time.Time, err error) {
	if _, err = h.conn.Write(request); err != nil {
		return a, sent, first, err
	}
	sent = time.Now()
	if _, err = h.br.Peek(1); err != nil {
		return a, sent, first, err
	}
	first = time.Now()
	a, err = h.readAnswer()
	return a, sent, first, err
}

// readAnswer parses one response framed by Content-Length.
func (h *httpConn) readAnswer() (answer, error) {
	var a answer
	line, err := h.br.ReadSlice('\n')
	if err != nil {
		return a, fmt.Errorf("reading status line: %w", err)
	}
	// "HTTP/1.x NNN reason"
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return a, fmt.Errorf("malformed status line %q", line)
	}
	if a.status, err = strconv.Atoi(string(line[9:12])); err != nil {
		return a, fmt.Errorf("malformed status line %q", line)
	}
	a.length = -1
	for {
		line, err = h.br.ReadSlice('\n')
		if err != nil {
			return a, fmt.Errorf("reading header: %w", err)
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		colon := bytes.IndexByte(line, ':')
		if colon < 0 {
			return a, fmt.Errorf("malformed header line %q", line)
		}
		key, val := line[:colon], bytes.TrimSpace(line[colon+1:])
		switch {
		case bytes.EqualFold(key, []byte("Content-Length")):
			if a.length >= 0 {
				return a, errors.New("duplicate Content-Length")
			}
			if a.length, err = strconv.Atoi(string(val)); err != nil || a.length < 0 || a.length > maxBody {
				return a, fmt.Errorf("bad Content-Length %q", val)
			}
		case bytes.EqualFold(key, []byte("X-Served-By")):
			a.servedBy = string(val)
		}
	}
	if a.length < 0 {
		return a, errors.New("response without Content-Length")
	}
	if a.length > len(h.buf) {
		h.buf = make([]byte, a.length)
	}
	a.body = h.buf[:a.length]
	if _, err = io.ReadFull(h.br, a.body); err != nil {
		return a, fmt.Errorf("reading %d-byte body: %w", a.length, err)
	}
	return a, nil
}

// check verifies an answer against what was placed. full compares the
// body byte for byte; otherwise only status and length are checked.
func check(a answer, o *object, wantStatus int, full, checkNode bool) error {
	if a.status != wantStatus {
		return fmt.Errorf("%s: status %d, want %d", o.path, a.status, wantStatus)
	}
	if wantStatus != 200 {
		return nil
	}
	if checkNode && a.servedBy != "" {
		held := false
		for _, n := range o.nodes {
			held = held || config.NodeID(a.servedBy) == n
		}
		if !held {
			return fmt.Errorf("%s: served by %s, which holds no copy (%v)", o.path, a.servedBy, o.nodes)
		}
	}
	for _, want := range o.want {
		if a.length != len(want) {
			continue
		}
		if !full || bytes.Equal(a.body, want) {
			return nil
		}
	}
	return fmt.Errorf("%s: %d-byte body matches no placed version", o.path, a.length)
}

// windowResult is everything one measured window produced.
type windowResult struct {
	elapsed   time.Duration
	samples   []sample
	failed    int // requests that errored or failed verification
	firstErr  error
	noRoute   int // 404s answered by the distributor itself
	truncated int // bodies cut short of their Content-Length
	stale     int // probes that saw pre-operation state
	mgmt      mgmtResult
	loadCPU   time.Duration // the harness process's CPU over the window
	// cpu is each cluster process's CPU time when the window opened and
	// when it closed, distributor first.
	cpu [2][]time.Duration
}

// ok counts the verified responses.
func (r *windowResult) ok() int { return len(r.samples) - r.failed }

// spanSink collects spans of one run; IDs are positions + 1.
type spanSink struct {
	mu    sync.Mutex
	run   string
	epoch time.Time
	spans []span
}

func (s *spanSink) add(parent int, name string, start, end time.Time, calls int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := len(s.spans) + 1
	s.spans = append(s.spans, span{
		ID: id, Parent: parent, Run: s.run, Name: name,
		Start: start.Sub(s.epoch).Nanoseconds(), End: end.Sub(s.epoch).Nanoseconds(), Calls: calls,
	})
	return id
}

// reader drives one closed-loop connection until stop closes. Probes
// handed over by the churn runner take precedence over the stream.
type reader struct {
	conn    *httpConn
	stream  *stream
	every   int // verify one body in every
	probes  <-chan []probe
	acks    chan<- int // stale count per probe batch
	sink    *spanSink  // nil = untraced
	samples []sample
	failed  int
	first   error
	noRoute int
	trunc   int
	stale   int
}

// one performs and records one request; it reports whether the answer
// passed.
func (r *reader) one(epoch time.Time, o *object, wantStatus int, full, probe bool) bool {
	start := time.Now()
	a, sent, first, err := r.conn.exchange(o.request)
	end := time.Now()
	if err == nil {
		err = check(a, o, wantStatus, full, probe)
	} else if errors.Is(err, io.ErrUnexpectedEOF) {
		r.trunc++
	}
	if a.status == 404 && bytes.HasPrefix(a.body, []byte("no route")) {
		r.noRoute++
	}
	s := sample{done: end.Sub(epoch), latency: end.Sub(start), ok: err == nil}
	if err == nil && a.status == 200 {
		s.bytes = a.length
	}
	r.samples = append(r.samples, s)
	if r.sink != nil && !first.IsZero() {
		id := r.sink.add(0, "request", start, end, 0)
		r.sink.add(id, "send", start, sent, 0)
		r.sink.add(id, "first_byte", sent, first, 0)
		r.sink.add(id, "body", first, end, 0)
	}
	if err != nil {
		r.failed++
		if r.first == nil {
			r.first = err
		}
	}
	return err == nil
}

func (r *reader) run(epoch time.Time, stop <-chan struct{}) {
	n := 0
	for {
		select {
		case <-stop:
			return
		case batch := <-r.probes:
			stale := 0
			for _, p := range batch {
				if !r.one(epoch, p.obj, p.status, true, true) {
					stale++
				}
			}
			r.stale += stale
			r.acks <- stale
			continue
		default:
		}
		n++
		r.one(epoch, r.stream.next(), 200, n%r.every == 0, false)
		if r.failed > 100 {
			return // a broken cluster; do not spin on errors for the whole window
		}
	}
}

// runWindow drives the cluster for d with clientConns closed-loop readers;
// on a churn workload the console script runs beside them and its probes
// go to the first reader. sink non-nil records client-side spans.
func runWindow(cl *cluster, w *workloadDef, st *site, seed int64, pass int, d time.Duration, script *churnRunner, sink *spanSink) (*windowResult, error) {
	readers := clientConns
	probes := make(chan []probe)
	acks := make(chan int)
	rs := make([]*reader, readers)
	for i := range rs {
		conn, err := dialHTTP(cl.dist.addrs["front"])
		if err != nil {
			return nil, err
		}
		defer conn.close()
		rs[i] = &reader{
			conn: conn, stream: newStream(st, seed, pass*clientConns+i), every: w.verifyEvery,
			sink: sink, samples: make([]sample, 0, 1<<17),
		}
	}
	if w.churn {
		rs[0].probes, rs[0].acks = probes, acks
	}
	gone := make(chan struct{}) // closed when the probed reader has returned
	res := &windowResult{}
	var err error
	if res.cpu[0], err = cl.cpu(); err != nil {
		return nil, err
	}
	cpu0 := selfCPU()
	stop := make(chan struct{})
	epoch := time.Now()
	var wg sync.WaitGroup
	for i, r := range rs {
		wg.Add(1)
		go func(i int, r *reader) {
			defer wg.Done()
			if i == 0 {
				defer close(gone)
			}
			r.run(epoch, stop)
		}(i, r)
	}
	if w.churn {
		res.mgmt = script.run(cl, epoch, d, probes, acks, gone)
	} else {
		time.Sleep(d)
	}
	close(stop)
	wg.Wait()
	res.elapsed = time.Since(epoch)
	res.loadCPU = selfCPU() - cpu0
	if res.cpu[1], err = cl.cpu(); err != nil {
		return nil, err
	}
	for _, r := range rs {
		res.samples = append(res.samples, r.samples...)
		res.failed += r.failed
		res.noRoute += r.noRoute
		res.truncated += r.trunc
		res.stale += r.stale
		if res.firstErr == nil {
			res.firstErr = r.first
		}
	}
	if res.firstErr == nil {
		res.firstErr = res.mgmt.firstErr
	}
	return res, nil
}
