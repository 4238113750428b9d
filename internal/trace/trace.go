// Package trace records and replays web access logs in Common Log Format.
//
// The paper's §5.2 numbers come from "our Web site running the proposed
// system" — live production traffic. This reproduction cannot ship those
// traces, so it provides the equivalent machinery instead: the distributor
// writes a CLF access log, and a replayer drives a cluster from any CLF
// log (recorded here or imported), preserving request order and, at
// reduced speed factors, inter-arrival spacing. Synthetic logs generated
// from the workload model stand in for the production trace.
package trace

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"strconv"
	"strings"
	"time"

	"webcluster/internal/faults"
	"webcluster/internal/httpx"
	"webcluster/internal/workload"
)

// clfTime is the Common Log Format timestamp layout.
const clfTime = "02/Jan/2006:15:04:05 -0700"

// Entry is one access-log line.
type Entry struct {
	ClientIP string
	Time     time.Time
	Method   string
	Path     string
	Proto    string
	Status   int
	Bytes    int64
}

// String formats the entry as a CLF line ("host - - [time] \"req\" status bytes").
func (e Entry) String() string {
	return fmt.Sprintf("%s - - [%s] %q %d %d",
		e.ClientIP,
		e.Time.Format(clfTime),
		e.Method+" "+e.Path+" "+e.Proto,
		e.Status,
		e.Bytes,
	)
}

// ErrMalformedLine reports an unparsable log line.
var ErrMalformedLine = errors.New("trace: malformed log line")

// ParseLine parses one CLF line. The request line is read as String
// writes it: a Go-quoted string, so a target holding a quote, a backslash
// or a control byte comes back as the bytes the client sent.
func ParseLine(line string) (Entry, error) {
	// host ident user [time] "request" status bytes
	openBracket := strings.IndexByte(line, '[')
	closeBracket := strings.IndexByte(line, ']')
	if openBracket < 0 || closeBracket < openBracket {
		return Entry{}, fmt.Errorf("%w: no timestamp in %q", ErrMalformedLine, line)
	}
	host := strings.Fields(line[:openBracket])
	if len(host) < 1 {
		return Entry{}, fmt.Errorf("%w: no host in %q", ErrMalformedLine, line)
	}
	ts, err := time.Parse(clfTime, line[openBracket+1:closeBracket])
	if err != nil {
		return Entry{}, fmt.Errorf("%w: %v", ErrMalformedLine, err)
	}
	rest := strings.TrimSpace(line[closeBracket+1:])
	if len(rest) == 0 || rest[0] != '"' {
		return Entry{}, fmt.Errorf("%w: no request in %q", ErrMalformedLine, line)
	}
	quoted, err := strconv.QuotedPrefix(rest)
	if err != nil {
		return Entry{}, fmt.Errorf("%w: unterminated request in %q", ErrMalformedLine, line)
	}
	reqLine, _ := strconv.Unquote(quoted) // cannot fail: QuotedPrefix accepted it
	// httpx splits the request line on single spaces, so the method and
	// the target may hold any other byte, a tab included.
	parts := strings.Split(reqLine, " ")
	if len(parts) != 3 || parts[0] == "" || parts[1] == "" || parts[2] == "" {
		return Entry{}, fmt.Errorf("%w: request line %q", ErrMalformedLine, reqLine)
	}
	tail := strings.Fields(rest[len(quoted):])
	if len(tail) < 2 {
		return Entry{}, fmt.Errorf("%w: missing status/bytes in %q", ErrMalformedLine, line)
	}
	status, err := strconv.Atoi(tail[0])
	if err != nil {
		return Entry{}, fmt.Errorf("%w: status %q", ErrMalformedLine, tail[0])
	}
	var bytes int64
	if tail[1] != "-" {
		bytes, err = strconv.ParseInt(tail[1], 10, 64)
		if err != nil {
			return Entry{}, fmt.Errorf("%w: bytes %q", ErrMalformedLine, tail[1])
		}
	}
	return Entry{
		ClientIP: host[0],
		Time:     ts,
		Method:   parts[0],
		Path:     parts[1],
		Proto:    parts[2],
		Status:   status,
		Bytes:    bytes,
	}, nil
}

// Read parses a whole log stream, skipping blank lines.
func Read(r io.Reader) ([]Entry, error) {
	var entries []Entry
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		e, err := ParseLine(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		entries = append(entries, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: reading log: %w", err)
	}
	return entries, nil
}

// Write emits entries as CLF lines.
func Write(w io.Writer, entries []Entry) error {
	bw := bufio.NewWriter(w)
	for _, e := range entries {
		if _, err := fmt.Fprintln(bw, e.String()); err != nil {
			return fmt.Errorf("trace: writing log: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("trace: flushing log: %w", err)
	}
	return nil
}

// Synthesize generates a CLF trace from the workload model: count requests
// drawn Zipf-style over site, with exponential inter-arrivals at the given
// mean rate. It stands in for a production access log.
func Synthesize(gen *workload.Generator, count int, start time.Time, ratePerSec float64, seed int64) []Entry {
	if ratePerSec <= 0 {
		ratePerSec = 100
	}
	entries := make([]Entry, 0, count)
	t := start
	// Deterministic pseudo-exponential gaps from a simple LCG so the
	// trace depends only on (gen, seed).
	state := uint64(seed)*6364136223846793005 + 1442695040888963407
	for i := 0; i < count; i++ {
		obj := gen.Next()
		state = state*6364136223846793005 + 1442695040888963407
		u := float64(state>>11) / float64(1<<53)
		if u <= 0 {
			u = 0.5
		}
		gap := -1.0 / ratePerSec * math.Log(u)
		t = t.Add(time.Duration(gap * float64(time.Second)))
		entries = append(entries, Entry{
			ClientIP: fmt.Sprintf("10.0.%d.%d", (i/251)%251+1, i%251+1),
			Time:     t,
			Method:   "GET",
			Path:     obj.Path,
			Proto:    "HTTP/1.0",
			Status:   200,
			Bytes:    obj.Size,
		})
	}
	return entries
}

// ReplayOptions configures trace replay against a live front end.
type ReplayOptions struct {
	// Addr is the front end.
	Addr string
	// Speedup divides recorded inter-arrival gaps (0 = as fast as
	// possible, ignoring timestamps).
	Speedup float64
	// Concurrency bounds in-flight requests in as-fast-as-possible mode.
	Concurrency int
	// Timeout bounds each request round trip (write + read). A wedged
	// front end surfaces as a counted error, not a hung replay worker.
	// Defaults to 5s.
	Timeout time.Duration
	// Faults, when non-nil, gates replay dials (point "replay.dial") and
	// wraps connections (point "replay.conn") so chaos runs can exercise
	// the replayer's own failure handling.
	Faults *faults.Injector
}

// ReplayReport summarizes a replay.
type ReplayReport struct {
	Requests int64
	Errors   int64
	Elapsed  time.Duration
	// StatusMismatches counts responses whose status differed from the
	// recorded one (e.g. content no longer placed).
	StatusMismatches int64
}

// Replay sends every entry's request to the front end in order and
// compares response status against the recording.
func Replay(entries []Entry, opts ReplayOptions) (ReplayReport, error) {
	if opts.Addr == "" {
		return ReplayReport{}, errors.New("trace: no address")
	}
	concurrency := opts.Concurrency
	if concurrency <= 0 {
		concurrency = 8
	}
	timeout := opts.Timeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	injector := opts.Faults
	start := time.Now()
	var report ReplayReport

	type job struct {
		e Entry
	}
	jobs := make(chan job)
	results := make(chan [2]int64, concurrency) // {error, mismatch}
	for w := 0; w < concurrency; w++ {
		go func() {
			var conn net.Conn
			var br *bufio.Reader
			defer func() {
				if conn != nil {
					_ = conn.Close()
				}
			}()
			for j := range jobs {
				var errC, misC int64
				if conn == nil {
					if ferr := injector.Fail("replay.dial"); ferr != nil {
						results <- [2]int64{1, 0}
						continue
					}
					c, err := net.DialTimeout("tcp", opts.Addr, timeout)
					if err != nil {
						results <- [2]int64{1, 0}
						continue
					}
					conn = injector.Conn("replay.conn", c)
					br = bufio.NewReader(conn)
				}
				req := &httpx.Request{
					Method: j.e.Method, Target: j.e.Path, Path: j.e.Path,
					Proto: httpx.Proto11, Header: httpx.NewHeader("Host", "replay"),
				}
				// Per-request deadline: one slow response must not wedge
				// the worker (and the whole replay) indefinitely.
				err := conn.SetDeadline(time.Now().Add(timeout))
				if err == nil {
					err = httpx.WriteRequest(conn, req)
				}
				var resp *httpx.Response
				if err == nil {
					resp, err = httpx.ReadResponse(br)
				}
				if err != nil {
					errC = 1
					_ = conn.Close()
					conn, br = nil, nil
				} else {
					if resp.StatusCode != j.e.Status {
						misC = 1
					}
					if !resp.KeepAlive() {
						_ = conn.Close()
						conn, br = nil, nil
					}
				}
				results <- [2]int64{errC, misC}
			}
		}()
	}

	go func() {
		var prev time.Time
		for _, e := range entries {
			if opts.Speedup > 0 && !prev.IsZero() {
				gap := e.Time.Sub(prev)
				if gap > 0 {
					time.Sleep(time.Duration(float64(gap) / opts.Speedup))
				}
			}
			prev = e.Time
			jobs <- job{e: e}
		}
		close(jobs)
	}()

	for range entries {
		r := <-results
		report.Requests++
		report.Errors += r[0]
		report.StatusMismatches += r[1]
	}
	report.Elapsed = time.Since(start)
	return report, nil
}
