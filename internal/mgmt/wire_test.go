package mgmt

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"webcluster/internal/config"
	"webcluster/internal/testutil"
)

// writeFrame sends one frame through a throwaway framer.
func writeFrame(w io.Writer, header any, payload []byte) error {
	var f framer
	return f.write(w, header, payload)
}

// readFrame reads one frame through a throwaway framer.
func readFrame(r io.Reader, header any) ([]byte, error) {
	var f framer
	return f.read(r, header, nil)
}

// goldenFrames pins the wire format: a console, a controller, a broker
// and a backup front end from different builds must agree on it, so a
// renamed envelope field, a changed length width or a moved payload fails
// here first.
var goldenFrames = []struct {
	name    string
	header  any
	payload []byte
	wire    string
}{
	{
		name: "broker request",
		header: request{
			ID: 7, Agent: "store-file", Payload: true,
			Args: &Args{Path: "/a.html", Data: []byte("never in the envelope")},
		},
		payload: []byte("hello"),
		wire: "WCM\x02" + "\x00\x00\x00\x46" + "\x00\x00\x00\x00\x00\x00\x00\x05" +
			`{"id":7,"agent":"store-file","args":{"path":"/a.html"},"payload":true}` +
			"hello",
	},
	{
		name: "broker pull-file request",
		header: request{
			ID: 8, Agent: "pull-file",
			Args: &Args{Path: "/old.html", Size: 4096, Dest: "/new.html", Source: "10.0.0.7:7071"},
		},
		wire: "WCM\x02" + "\x00\x00\x00\x70" + "\x00\x00\x00\x00\x00\x00\x00\x00" +
			`{"id":8,"agent":"pull-file","args":{"path":"/old.html","size":4096,"dest":"/new.html","source":"10.0.0.7:7071"}}`,
	},
	{
		name: "broker response",
		header: response{
			ID: 7, OK: true, Payload: true,
			Result: &Result{Message: "fetched", Data: []byte("never in the envelope")},
		},
		payload: []byte{0x00, 0xff, '\n'},
		wire: "WCM\x02" + "\x00\x00\x00\x40" + "\x00\x00\x00\x00\x00\x00\x00\x03" +
			`{"id":7,"ok":true,"result":{"message":"fetched"},"payload":true}` +
			"\x00\xff\n",
	},
	{
		name: "console request",
		header: consoleEnvelope{
			ConsoleRequest: ConsoleRequest{
				Op: "insert", Path: "/a.html", Size: 5,
				Nodes: []config.NodeID{"n1", "n2"}, Data: []byte("never in the envelope"),
			},
			Payload: true,
		},
		payload: []byte("hello"),
		wire: "WCM\x02" + "\x00\x00\x00\x4c" + "\x00\x00\x00\x00\x00\x00\x00\x05" +
			`{"op":"insert","path":"/a.html","size":5,"nodes":["n1","n2"],"payload":true}` +
			"hello",
	},
	{
		name:   "console response",
		header: ConsoleResponse{OK: true, Message: "inserted /a.html"},
		wire: "WCM\x02" + "\x00\x00\x00\x28" + "\x00\x00\x00\x00\x00\x00\x00\x00" +
			`{"ok":true,"message":"inserted /a.html"}`,
	},
	{
		name:   "replication heartbeat",
		header: replHeader{Type: "hb"},
		wire: "WCM\x02" + "\x00\x00\x00\x0d" + "\x00\x00\x00\x00\x00\x00\x00\x00" +
			`{"type":"hb"}`,
	},
	{
		name:    "replication snapshot",
		header:  replHeader{Type: "snapshot", Cluster: &goldenReplCluster},
		payload: []byte(goldenReplTable),
		wire: "WCM\x02" + "\x00\x00\x00\xd1" + "\x00\x00\x00\x00\x00\x00\x00\x64" +
			`{"type":"snapshot","cluster":{"distributorCPUMHz":350,"nodes":[{"id":"n1","cpuMHz":350,"memoryMB":64,"diskGB":8,"disk":"SCSI","platform":"Linux/Apache","addr":"127.0.0.1:9001","brokerAddr":"127.0.0.1:7001"}]}}` +
			goldenReplTable,
	},
}

// goldenReplCluster and goldenReplTable are the replication snapshot's
// two halves: the spec in the envelope, and as the payload the bytes
// urltable writes for one pinned /a.html on n1 with 7 hits
// (TestReplicationStreamContents holds a live feed to them).
var goldenReplCluster = config.ClusterSpec{
	DistributorCPUMHz: 350,
	Nodes: []config.NodeSpec{{
		ID: "n1", CPUMHz: 350, MemoryMB: 64, DiskGB: 8,
		Disk: config.DiskSCSI, Platform: config.LinuxApache,
		Addr: "127.0.0.1:9001", BrokerAddr: "127.0.0.1:7001",
	}},
}

const goldenReplTable = `[{"path":"/a.html","size":12,"class":"html","priority":2,"pinned":true,"hits":7,"locations":["n1"]}]`

func TestFrameGoldenWireFormat(t *testing.T) {
	for _, g := range goldenFrames {
		// by pointer, as the hot envelopes are sent: the codec writes them
		sent := reflect.New(reflect.TypeOf(g.header))
		sent.Elem().Set(reflect.ValueOf(g.header))
		var buf bytes.Buffer
		if err := writeFrame(&buf, sent.Interface(), g.payload); err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if buf.String() != g.wire {
			t.Errorf("%s: wire format drifted:\n got: %q\nwant: %q", g.name, buf.String(), g.wire)
		}
		// and the pinned bytes decode to what was sent
		got := reflect.New(reflect.TypeOf(g.header))
		payload, err := readFrame(strings.NewReader(g.wire), got.Interface())
		if err != nil {
			t.Fatalf("%s: reading golden: %v", g.name, err)
		}
		if !bytes.Equal(payload, g.payload) {
			t.Errorf("%s: payload = %q, want %q", g.name, payload, g.payload)
		}
		var reencoded bytes.Buffer
		if err := writeFrame(&reencoded, got.Interface(), payload); err != nil {
			t.Fatal(err)
		}
		if reencoded.String() != g.wire {
			t.Errorf("%s: decode → encode is not a fixed point:\n got: %q\nwant: %q", g.name, reencoded.String(), g.wire)
		}
	}
}

// randomText draws strings that stress JSON escaping.
func randomText(rng *rand.Rand) string {
	const alphabet = "abc/._-\"\\\n\t <>&é世\x00"
	runes := []rune(alphabet)
	out := make([]rune, rng.Intn(24))
	for i := range out {
		out[i] = runes[rng.Intn(len(runes))]
	}
	return string(out)
}

// TestFrameRoundTrip: decode(encode(header, payload)) == (header,
// payload) for seeded envelopes and the payload sizes around the
// reader's buffer boundary, several frames back to back on one stream.
func TestFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	sizes := []int{0, 1, 4095, 4096, 4097, 1 << 20}
	var stream bytes.Buffer
	type sent struct {
		env     consoleEnvelope
		payload []byte
	}
	var frames []sent
	for round := 0; round < 4; round++ {
		for _, size := range sizes {
			payload := make([]byte, size)
			rng.Read(payload)
			env := consoleEnvelope{
				ConsoleRequest: ConsoleRequest{
					Op: randomText(rng), Path: randomText(rng), NewPath: randomText(rng),
					Size: rng.Int63(), Priority: rng.Intn(3), Seed: -rng.Int63(),
					Node: config.NodeID(randomText(rng)), Limit: rng.Intn(100),
				},
				Payload: rng.Intn(2) == 0,
			}
			if rng.Intn(2) == 0 {
				env.Nodes = []config.NodeID{"n1", config.NodeID(randomText(rng))}
			}
			if err := writeFrame(&stream, env, payload); err != nil {
				t.Fatal(err)
			}
			frames = append(frames, sent{env, payload})
		}
	}
	br := bufio.NewReader(&stream)
	for i, want := range frames {
		var got consoleEnvelope
		payload, err := readFrame(br, &got)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want.env) {
			t.Fatalf("frame %d: envelope changed:\n got: %+v\nwant: %+v", i, got, want.env)
		}
		if payload == nil || !bytes.Equal(payload, want.payload) {
			t.Fatalf("frame %d: payload of %d bytes came back as %d (nil=%v)", i, len(want.payload), len(payload), payload == nil)
		}
	}
	if _, err := readFrame(br, &consoleEnvelope{}); err != io.EOF {
		t.Fatalf("end of stream = %v, want bare io.EOF", err)
	}
}

// TestFrameTruncatedAtEveryLength: a frame cut anywhere is an error —
// a clean EOF only before its first byte — and never a panic.
func TestFrameTruncatedAtEveryLength(t *testing.T) {
	var buf bytes.Buffer
	payload := bytes.Repeat([]byte{0xab}, 100)
	if err := writeFrame(&buf, request{ID: 1, Agent: "store-file", Args: &Args{Path: "/t"}, Payload: true}, payload); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	for n := 0; n < len(frame); n++ {
		var req request
		_, err := readFrame(bytes.NewReader(frame[:n]), &req)
		switch {
		case err == nil:
			t.Fatalf("frame cut at %d of %d bytes decoded", n, len(frame))
		case n == 0 && err != io.EOF:
			t.Fatalf("empty stream = %v, want bare io.EOF", err)
		case n > 0 && !errors.Is(err, io.ErrUnexpectedEOF):
			t.Fatalf("frame cut at %d = %v, want io.ErrUnexpectedEOF", n, err)
		}
	}
	if _, err := readFrame(bytes.NewReader(frame), &request{}); err != nil {
		t.Fatalf("whole frame: %v", err)
	}
}

// prefixOf builds a frame prefix announcing the given lengths.
func prefixOf(hlen uint32, plen uint64) []byte {
	p := make([]byte, framePrefixLen)
	copy(p, wireMagic[:])
	binary.BigEndian.PutUint32(p[4:], hlen)
	binary.BigEndian.PutUint64(p[8:], plen)
	return p
}

// TestFrameBoundsCheckedBeforeAllocation: a hostile or corrupt length
// is refused from the sixteen prefix bytes alone — nothing is sized
// from it. Reverting either bound check makes this test allocate
// gigabytes (or panic in make on the 2⁶³ case).
func TestFrameBoundsCheckedBeforeAllocation(t *testing.T) {
	cases := []struct {
		name string
		hlen uint32
		plen uint64
	}{
		{"header one over", maxFrameHeader + 1, 0},
		{"header 4 GiB", 0xffffffff, 0},
		{"payload one over", 2, maxFramePayload + 1},
		{"payload 2^63", 2, 1 << 63},
		{"payload 2^64-1", 2, 0xffffffffffffffff},
	}
	for _, tc := range cases {
		// the header bytes are there so that only the bound can refuse it
		wire := append(prefixOf(tc.hlen, tc.plen), "{}"...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := readFrame(bytes.NewReader(wire), &request{})
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "bound") {
			t.Errorf("%s: err = %v, want a bound refusal", tc.name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
			t.Errorf("%s: refusing the frame allocated %d bytes", tc.name, grew)
		}
	}
	// at the bounds themselves the lengths pass and the (absent) bytes
	// are what fails
	_, err := readFrame(bytes.NewReader(prefixOf(maxFrameHeader, maxFramePayload)), &request{})
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("frame at the bounds = %v, want io.ErrUnexpectedEOF", err)
	}
	if err := writeFrame(io.Discard, request{}, make([]byte, maxFramePayload+1)); err == nil {
		t.Error("writeFrame sent a payload over the bound")
	}
}

// TestFrameMismatchNamed: anything but the v2 magic is refused from its
// first four bytes with errWireMismatch, and the message says what the
// peer speaks.
func TestFrameMismatchNamed(t *testing.T) {
	cases := []struct{ wire, want string }{
		{`{"op":"tree"}` + "\n", "JSON-line protocol (wire v1)"},
		{`{"id":1,"agent":"ping"}` + "\n", "JSON-line protocol (wire v1)"},
		{"WCM\x03" + strings.Repeat("\x00", 12), "peer speaks wire v3"},
		{"GET / HTTP/1.1\r\n\r\n", `peer sent "GET "`},
	}
	for _, tc := range cases {
		_, err := readFrame(strings.NewReader(tc.wire), &request{})
		if !errors.Is(err, errWireMismatch) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: err = %v, want errWireMismatch naming %q", tc.wire, err, tc.want)
		}
	}
}

// v1Exchange plays a wire-v1 client against addr: one JSON line out, one
// JSON line back, then the connection must be closed by the peer.
func v1Exchange(t *testing.T, addr, line string) (reply struct {
	OK    bool   `json:"ok"`
	Error string `json:"error"`
}) {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	if err := conn.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(conn, line+"\n"); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	got, err := br.ReadBytes('\n')
	if err != nil {
		t.Fatalf("v1 peer got no refusal line: %v (deadline means the server hung)", err)
	}
	if err := json.Unmarshal(got, &reply); err != nil {
		t.Fatalf("refusal %q is not a JSON line: %v", got, err)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("after the refusal: %v, want the connection closed", err)
	}
	return reply
}

// TestV1PeerRefusedByServers: a console or controller still speaking
// JSON lines is told why and disconnected at its first bytes, not left
// waiting on a server that is waiting for the rest of a frame.
func TestV1PeerRefusedByServers(t *testing.T) {
	testutil.NoLeaks(t)
	ctl, _ := newController(t, "n1")
	server := NewConsoleServer(ctl, nil)
	consoleAddr, err := server.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = server.Close() }()
	broker := NewBroker(env("n9"))
	brokerAddr, err := broker.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = broker.Close() }()

	for _, tc := range []struct{ name, addr, line string }{
		{"console server", consoleAddr, `{"op":"tree"}`},
		{"broker", brokerAddr, `{"id":1,"agent":"ping","args":{}}`},
	} {
		reply := v1Exchange(t, tc.addr, tc.line)
		if reply.OK || !strings.Contains(reply.Error, "wire protocol mismatch") || !strings.Contains(reply.Error, "wire v1") {
			t.Errorf("%s refused a v1 peer with %+v", tc.name, reply)
		}
	}
}

// TestV1PeerRefusedByClients: a v1 server answers whatever it is sent
// with a JSON line; both clients name the mismatch instead of decoding
// it or waiting for sixteen bytes that may never come.
func TestV1PeerRefusedByClients(t *testing.T) {
	testutil.NoLeaks(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			buf := make([]byte, 1)
			_, _ = conn.Read(buf)                           // a request arrived
			_, _ = io.WriteString(conn, `{"ok":true}`+"\n") // 12 bytes: shorter than a prefix
			<-time.After(50 * time.Millisecond)
			_ = conn.Close()
		}
	}()

	console, err := DialConsole(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = console.Close() }()
	if _, err := console.Do(ConsoleRequest{Op: "tree"}); !errors.Is(err, errWireMismatch) {
		t.Errorf("Console.Do against a v1 server = %v, want errWireMismatch", err)
	}
	client, err := DialBroker(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = client.Close() }()
	if _, _, err := client.Invoke("ping", Args{}); !errors.Is(err, errWireMismatch) {
		t.Errorf("BrokerClient.Invoke against a v1 server = %v, want errWireMismatch", err)
	}
	_ = l.Close()
	<-done
}

// countingConn counts the bytes written through it and read from it.
type countingConn struct {
	net.Conn
	wrote, read atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.wrote.Add(int64(n))
	return n, err
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read.Add(int64(n))
	return n, err
}

// TestInsertBytesPerHop: a 1 MiB insert on two nodes puts the payload
// plus under 1 KiB of framing on each hop — console → server once,
// controller → broker once per node. Base64-in-JSON put 4/3 of it.
func TestInsertBytesPerHop(t *testing.T) {
	testutil.NoLeaks(t)
	ctl, brokers := newController(t, "n1", "n2")
	server := NewConsoleServer(ctl, nil)
	addr, err := server.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = server.Close() }()
	console, err := DialConsole(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = console.Close() }()

	hops := map[string]*countingConn{"console": {Conn: console.conn}}
	console.conn = hops["console"]
	for node, client := range ctl.brokers {
		hops[string(node)] = &countingConn{Conn: client.conn}
		client.conn = hops[string(node)]
	}
	// agents installed and counted out before the measured insert
	for node := range brokers {
		if _, err := ctl.Dispatch(config.NodeID(node), OpStoreFile.String(), Args{Path: "/warm-" + node, Data: []byte("w")}); err != nil {
			t.Fatal(err)
		}
	}
	for _, hop := range hops {
		hop.wrote.Store(0)
	}

	const size = 1 << 20
	data := make([]byte, size)
	rand.New(rand.NewSource(1)).Read(data)
	if _, err := console.Do(ConsoleRequest{Op: "insert", Path: "/big.bin", Size: size, Data: data, Nodes: []config.NodeID{"n1", "n2"}}); err != nil {
		t.Fatal(err)
	}
	for name, hop := range hops {
		if got := hop.wrote.Load(); got < size || got > size+1024 {
			t.Errorf("hop %s carried %d bytes for a %d-byte insert, want payload + at most 1 KiB", name, got, size)
		}
	}
	for node, b := range brokers {
		stored, err := b.env.Store.Fetch("/big.bin")
		if err != nil || !bytes.Equal(stored, data) {
			t.Errorf("node %s holds %d bytes, err %v; want the %d inserted", node, len(stored), err, size)
		}
	}
}

// spyStore records how Put was called and serves a canned Fetch, so a
// test sees whether nil and empty Data survive both directions of the
// broker hop.
type spyStore struct {
	mu      sync.Mutex // the race detector cannot see the reply's happens-before
	puts    map[string][]byte
	fetches map[string][]byte
}

func (s *spyStore) Fetch(path string) ([]byte, error) { return s.fetches[path], nil }
func (s *spyStore) Has(path string) bool              { _, ok := s.put(path); return ok }
func (s *spyStore) Put(path string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.puts[path] = data
	return nil
}
func (s *spyStore) Replace(path string, data []byte) error { return s.Put(path, data) }
func (s *spyStore) Delete(string) error                    { return nil }
func (s *spyStore) List() []string                         { return nil }
func (s *spyStore) UsedBytes() int64                       { return 0 }

// put returns what Put received for path.
func (s *spyStore) put(path string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.puts[path]
	return data, ok
}

// TestNilVersusEmptyDataSurvivesTheWire: a zero-length file is still a
// file (empty Data arrives empty, not nil), and a store-file with no
// Data still asks for Size synthetic bytes (nil arrives nil) — through
// the broker hop, requests and replies (the console hop's half is the
// root package's TestConsoleObjectLifecycleOverTheWire).
func TestNilVersusEmptyDataSurvivesTheWire(t *testing.T) {
	testutil.NoLeaks(t)
	spy := &spyStore{
		puts: make(map[string][]byte),
		fetches: map[string][]byte{
			"/empty": {},
			"/nil":   nil,
			"/one":   {1},
		},
	}
	b := NewBroker(Env{Node: "n1", Store: spy})
	baddr, err := b.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b.Close() }()
	ctl := NewController(nil)
	if err := ctl.AddNode("n1", baddr); err != nil {
		t.Fatal(err)
	}
	defer ctl.RemoveNode("n1")

	// replies: fetch-file
	for path, want := range spy.fetches {
		res, err := ctl.Dispatch("n1", OpFetchFile.String(), Args{Path: path})
		if err != nil {
			t.Fatal(err)
		}
		if (res.Data == nil) != (want == nil) || !bytes.Equal(res.Data, want) {
			t.Errorf("fetch %s = %v (nil=%v), want %v (nil=%v)", path, res.Data, res.Data == nil, want, want == nil)
		}
	}
	// requests: store-file straight to the broker
	if _, err := ctl.Dispatch("n1", OpStoreFile.String(), Args{Path: "/put-empty", Data: []byte{}, Size: 9}); err != nil {
		t.Fatal(err)
	}
	if got, ok := spy.put("/put-empty"); !ok || got == nil || len(got) != 0 {
		t.Errorf("empty Data reached the store as %v (nil=%v), want empty non-nil", got, got == nil)
	}
	if _, err := ctl.Dispatch("n1", OpStoreFile.String(), Args{Path: "/put-synthetic", Size: 9}); err != nil {
		t.Fatal(err)
	}
	if got, _ := spy.put("/put-synthetic"); len(got) != 9 {
		t.Errorf("nil Data with Size 9 stored %d bytes, want 9 synthetic", len(got))
	}
}

// FuzzReadFrame: whatever bytes arrive, readFrame returns a frame or an
// error — no panic, no allocation sized by an unchecked length — and a
// frame it accepts survives encode → decode unchanged.
func FuzzReadFrame(f *testing.F) {
	for _, g := range goldenFrames {
		f.Add([]byte(g.wire))
		f.Add([]byte(g.wire[:len(g.wire)/2]))
	}
	f.Add([]byte(`{"op":"tree"}` + "\n"))
	f.Add(prefixOf(0xffffffff, 1<<63))
	f.Fuzz(func(t *testing.T, wire []byte) {
		if len(wire) >= framePrefixLen {
			// a length inside the bound is honoured before the bytes
			// arrive; keep the fuzzer from spending its budget on
			// quarter-gigabyte slices
			if plen := binary.BigEndian.Uint64(wire[8:]); plen > 1<<20 && plen <= maxFramePayload {
				t.Skip()
			}
		}
		var hdr json.RawMessage
		payload, err := readFrame(bytes.NewReader(wire), &hdr)
		if err != nil {
			return
		}
		if len(payload)+len(hdr)+framePrefixLen > len(wire) {
			t.Fatalf("frame of %d+%d bytes read out of %d", len(hdr), len(payload), len(wire))
		}
		var again bytes.Buffer
		if err := writeFrame(&again, hdr, payload); err != nil {
			t.Fatalf("re-encoding an accepted frame: %v", err)
		}
		var hdr2 json.RawMessage
		payload2, err := readFrame(&again, &hdr2)
		if err != nil {
			t.Fatalf("re-reading an accepted frame: %v", err)
		}
		// the envelope may be re-spelled (whitespace, escapes), not changed
		var env, env2 any
		if err := json.Unmarshal(hdr, &env); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(hdr2, &env2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(payload, payload2) || !reflect.DeepEqual(env, env2) {
			t.Fatalf("frame changed across encode → decode:\n%q %q\n%q %q", hdr, payload, hdr2, payload2)
		}
	})
}
