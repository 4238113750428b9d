package mgmt

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"webcluster/internal/config"
	"webcluster/internal/monitor"
)

// checkEncode: an envelope the codec takes is written byte for byte as
// json.Marshal writes it.
func checkEncode(t *testing.T, e envelope) {
	t.Helper()
	got, ok := appendObject([]byte("prefix"), e.fields(nil))
	if !ok {
		return
	}
	want, err := json.Marshal(e)
	if err != nil {
		t.Fatalf("json.Marshal(%#v): %v", e, err)
	}
	if !bytes.Equal(got, append([]byte("prefix"), want...)) {
		t.Fatalf("%T encodes as\n%q\nencoding/json writes\n%q", e, got, want)
	}
}

// checkDecode: decodeEnvelope makes of in what json.Unmarshal makes of
// it, error for error, whether the codec takes it or leaves it; and what
// json.Unmarshal takes re-encodes identically.
func checkDecode[T any, P interface {
	*T
	envelope
}](t *testing.T, in []byte) {
	t.Helper()
	var want, got T
	jerr := json.Unmarshal(in, &want)
	if derr := new(framer).decodeEnvelope(in, P(&got)); (derr == nil) != (jerr == nil) {
		t.Fatalf("%T from %q: decodeEnvelope says %v, encoding/json %v", got, in, derr, jerr)
	}
	if jerr != nil {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%T from %q:\ndecodeEnvelope %#v\nencoding/json  %#v", got, in, got, want)
	}
	checkEncode(t, P(&want))
}

// checkAll runs checkDecode for every hot envelope.
func checkAll(t *testing.T, in []byte) {
	t.Helper()
	checkDecode[consoleEnvelope](t, in)
	checkDecode[ConsoleResponse](t, in)
	checkDecode[request](t, in)
	checkDecode[response](t, in)
}

// FuzzEnvelopeCodec holds the hot envelopes' codec to encoding/json:
// whatever the fields hold, encoding is byte-identical to json.Marshal,
// and whatever bytes arrive, the scanner either decodes what
// json.Unmarshal would or leaves them to it.
func FuzzEnvelopeCodec(f *testing.F) {
	for _, g := range goldenFrames {
		f.Add([]byte(g.wire[framePrefixLen:len(g.wire)-len(g.payload)]), "/a.html", "n1", int64(7), true)
	}
	f.Add([]byte(` { "op" : "tree" , "limit":-3 } `), "<&>\u2028\x7f", "\xff\xfe", int64(-1), false)
	f.Add([]byte(`{"id":1,"ok":true,"result":{"paths":[]},"result":{}}`), "a\"b\\c\n\t\x01", "é世", int64(1<<62), true)
	f.Add([]byte(`{"op":"insert","nodes":["n1",null],"size":1e3}`), "", "", int64(0), false)
	f.Fuzz(func(t *testing.T, in []byte, s1, s2 string, n int64, flag bool) {
		checkAll(t, in)
		var nodes []config.NodeID
		var list []string
		var args *Args
		var res *Result
		if flag {
			nodes = []config.NodeID{config.NodeID(s1), config.NodeID(s2)}
			list = []string{s2}
			args = &Args{Path: s1, Size: n, Dest: s2, Source: s1}
			res = &Result{Message: s2, Paths: list}
		}
		for _, e := range []envelope{
			&consoleEnvelope{ConsoleRequest{
				Op: s1, Path: s2, NewPath: s1, Size: n, Priority: int(n % 3), Node: config.NodeID(s2),
				Source: config.NodeID(s1), Target: config.NodeID(s2), Nodes: nodes, Objects: int(n >> 8),
				Seed: -n, Workload: s1, Policy: s2, Limit: int(n & 0xff), Data: []byte(s1),
			}, flag},
			&ConsoleResponse{OK: flag, Error: s1, Tree: s2, Nodes: nodes, Actions: list, Message: s1},
			&request{ID: n, Agent: s1, Args: args, Payload: flag},
			&response{ID: n, OK: flag, Error: s2, Result: res, NeedCode: !flag, Payload: flag},
		} {
			checkEncode(t, e)
			b, err := new(framer).appendEnvelope(nil, e)
			if err != nil {
				t.Fatal(err)
			}
			checkAll(t, b)
		}
	})
}

// TestHotEnvelopesSkipReflection: the envelopes a content operation sends
// take the codec both ways, and the ones carrying a report, or a string
// encoding/json escapes, take encoding/json.
func TestHotEnvelopesSkipReflection(t *testing.T) {
	for _, g := range goldenFrames[:5] {
		sent := reflect.New(reflect.TypeOf(g.header))
		sent.Elem().Set(reflect.ValueOf(g.header))
		if _, ok := appendObject(nil, sent.Interface().(envelope).fields(nil)); !ok {
			t.Errorf("%s: encoded by encoding/json", g.name)
		}
		hdr := []byte(g.wire[framePrefixLen : len(g.wire)-len(g.payload)])
		if !decodeFlat(hdr, reflect.New(reflect.TypeOf(g.header)).Interface().(envelope).fields(nil)) {
			t.Errorf("%s: decoded by encoding/json", g.name)
		}
	}
	for _, e := range []envelope{
		&request{Install: &Spec{Name: "ping", Op: OpPing}},
		&response{OK: true, Result: &Result{Status: &monitor.NodeStatus{}}},
		&ConsoleResponse{OK: true, Explain: &ExplainReport{}},
		&ConsoleResponse{OK: true, Tree: "/a.html\n"},
	} {
		if _, ok := appendObject(nil, e.fields(nil)); ok {
			t.Errorf("%#v took the codec", e)
		}
	}
}
