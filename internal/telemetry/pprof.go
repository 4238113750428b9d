package telemetry

import (
	"bytes"
	"fmt"
	"net/url"
	"runtime/pprof"
	"runtime/trace"
	"strconv"
	"time"
)

// Default durations of the two timed profiles when ?seconds is absent.
// net/http/pprof's 30 s CPU profile would meet the write bound, so this
// one runs half of it.
const (
	defaultProfileDuration = adminWriteTimeout / 2
	defaultTraceDuration   = time.Second
)

// pprof answers /debug/pprof/<name> with what net/http/pprof serves there,
// written with runtime/pprof and runtime/trace, so `go tool pprof` and
// `go tool trace` read it:
//
//   - "" lists the profiles;
//   - "profile" is a CPU profile for ?seconds=N, "trace" an execution
//     trace for ?seconds=N: N at or past the write bound is refused, as
//     net/http/pprof refused it before it learned to extend the
//     deadline, and a profile in flight ends early when the server
//     closes;
//   - any runtime/pprof profile by name (heap, allocs, goroutine, block,
//     mutex, threadcreate), in ?debug=N's format. Delta profiles
//     (?seconds=N on these) are not implemented.
func (a *AdminServer) pprof(name string, q url.Values, w *bytes.Buffer) (int, string) {
	switch name {
	case "":
		fmt.Fprintf(w, "profile\tCPU profile, ?seconds=N (default %v)\n", defaultProfileDuration)
		fmt.Fprintf(w, "trace\texecution trace, ?seconds=N (default %v)\n", defaultTraceDuration)
		for _, p := range pprof.Profiles() {
			fmt.Fprintf(w, "%s\t%d\n", p.Name(), p.Count())
		}
		return 200, textPlain
	case "profile", "trace":
		return a.timed(name, q, w)
	}
	p := pprof.Lookup(name)
	if p == nil {
		w.WriteString("unknown profile\n")
		return 404, textPlain
	}
	if q.Has("seconds") {
		w.WriteString("seconds is not supported for this profile\n")
		return 400, textPlain
	}
	debug, _ := strconv.Atoi(q.Get("debug"))
	if err := p.WriteTo(w, debug); err != nil {
		w.Reset()
		fmt.Fprintf(w, "writing %s profile: %v\n", name, err)
		return 500, textPlain
	}
	if debug != 0 {
		return 200, textPlain
	}
	return 200, "application/octet-stream"
}

// timed records a CPU profile or an execution trace for ?seconds=N into
// w.
func (a *AdminServer) timed(name string, q url.Values, w *bytes.Buffer) (int, string) {
	d := defaultProfileDuration
	start, stop := pprof.StartCPUProfile, pprof.StopCPUProfile
	if name == "trace" {
		d = defaultTraceDuration
		start, stop = trace.Start, trace.Stop
	}
	if s := q.Get("seconds"); s != "" {
		sec, err := strconv.ParseFloat(s, 64)
		if err != nil || !(sec > 0) {
			w.WriteString("bad seconds\n")
			return 400, textPlain
		}
		if sec >= adminWriteTimeout.Seconds() {
			fmt.Fprintf(w, "profile duration exceeds the %v write bound\n", adminWriteTimeout)
			return 400, textPlain
		}
		d = time.Duration(sec * float64(time.Second))
	}
	if err := start(w); err != nil {
		fmt.Fprintf(w, "could not start the %s: %v\n", name, err)
		return 500, textPlain
	}
	t := time.NewTimer(d)
	select {
	case <-t.C:
	case <-a.life.Done():
		t.Stop()
	}
	stop()
	return 200, "application/octet-stream"
}
