//go:build linux

package core

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"webcluster/internal/content"
	"webcluster/internal/httpx"
	"webcluster/internal/mgmt"
	"webcluster/internal/urltable"
)

// preemptServerEnv turns the test binary into TestConsolePreemption's
// front end.
const preemptServerEnv = "CORE_PREEMPT_SERVER"

// preemptObjects is the size of the table the console renders.
const preemptObjects = 50000

// preemptBound is how long the GET may take beside the render.
const preemptBound = 100 * time.Millisecond

func TestMain(m *testing.M) {
	if os.Getenv(preemptServerEnv) != "" {
		servePreemption()
		return
	}
	os.Exit(m.Run())
}

// servePreemption runs a one-node cluster on one P, its table listing
// preemptObjects objects and one served, /hot.html; it prints the front
// end's and the console's addresses and serves until stdin closes.
func servePreemption() {
	runtime.GOMAXPROCS(1)
	spec := DefaultSpec()
	spec.Nodes = spec.Nodes[:1]
	node := spec.Nodes[0].ID
	table := urltable.New(urltable.Options{})
	for i := 0; i < preemptObjects; i++ {
		obj := content.Object{Path: fmt.Sprintf("/d%03d/page%05d.html", i%100, i), Size: 4096, Class: content.ClassHTML}
		if err := table.Insert(obj, node); err != nil {
			fmt.Println("insert:", err)
			return
		}
	}
	c, err := Launch(Options{Spec: spec, Table: table, ConsoleAddr: "127.0.0.1:0"})
	if err != nil {
		fmt.Println("launch:", err)
		return
	}
	defer func() { _ = c.Close() }()
	if err := c.Controller.Insert(content.Object{Path: "/hot.html", Size: 5, Class: content.ClassHTML}, []byte("hello"), node); err != nil {
		fmt.Println("insert:", err)
		return
	}
	// No collections from here on: see TestConsolePreemption.
	runtime.GC()
	debug.SetGCPercent(-1)
	fmt.Println(c.FrontAddr, c.ConsoleAddr)
	_, _ = io.Copy(io.Discard, os.Stdin)
}

// A long console operation does not hold up the data plane: while a
// one-P front end renders the tree of a 50 000-object table for a
// console — management goroutines woken by raw reads, which never enter
// the runtime's syscall hand-off — a relayed GET still finishes within
// preemptBound, where waiting out the render would take most of its
// 150–300 ms. The front end is a child process, so nothing of the test's
// own wakes its scheduler, and it stops collecting once its table is
// built: a collection's stop-the-world is a scheduling point of its own,
// and the render allocates enough to let a GET through without the tick. That leaves
// the raw socket's preemption tick (DESIGN.md §2.1) as the one thing
// that time-slices the render. With the tick removed in a scratch copy,
// every GET waited 121–172 ms.
//
// The bound is not TestRawPreemption's 50 ms: that exchange is one
// wake-up, this one three or four (the front end reading the client, the
// back end reading the front end, the front end reading the back end).
// While the render holds the one P, a goroutine the network readies
// waits for sysmon's next poll and for the render's 10 ms time slice to
// end at every one of them: the GET takes 38–53 ms on an idle 2-vCPU box
// and 44–60 ms with both CPUs busy, and 100 ms keeps TestRawPreemption's
// margin over that.
func TestConsolePreemption(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), preemptServerEnv+"=1", "GOMAXPROCS=1")
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = stdin.Close(); _ = cmd.Wait() })
	line, err := bufio.NewReader(out).ReadString('\n')
	addrs := strings.Fields(line)
	if err != nil || len(addrs) != 2 {
		t.Fatalf("front end said %q, %v", line, err)
	}

	front, err := net.DialTimeout("tcp", addrs[0], 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = front.Close() }()
	_ = front.SetDeadline(time.Now().Add(30 * time.Second))
	br := bufio.NewReader(front)
	get := func() time.Duration {
		t.Helper()
		start := time.Now()
		if _, err := io.WriteString(front, "GET /hot.html HTTP/1.1\r\nHost: x\r\n\r\n"); err != nil {
			t.Fatal(err)
		}
		resp, err := httpx.ReadResponseHeader(br)
		if err != nil {
			t.Fatal(err)
		}
		body := make([]byte, resp.ContentLength)
		if _, err := io.ReadFull(br, body); err != nil || resp.StatusCode != 200 || string(body) != "hello" {
			t.Fatalf("GET /hot.html = %d %q, %v", resp.StatusCode, body, err)
		}
		return time.Since(start)
	}
	console, err := mgmt.DialConsole(addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = console.Close() }()
	console.SetTimeout(30 * time.Second)

	get() // the relay's back-end connection is open
	// Best of three renders: without the tick every GET waits out its
	// render, while with it a GET over the bound is a load spike on the
	// host, which does not repeat three times.
	var stalls []time.Duration
	for len(stalls) < 3 {
		time.Sleep(50 * time.Millisecond) // the front end goes idle
		rendered := make(chan time.Duration, 1)
		go func() {
			start := time.Now()
			resp, err := console.Do(mgmt.ConsoleRequest{Op: "tree"})
			if err != nil || strings.Count(resp.Tree, "\n") < preemptObjects {
				t.Errorf("tree = %d lines, %v", strings.Count(resp.Tree, "\n"), err)
			}
			rendered <- time.Since(start)
		}()
		time.Sleep(10 * time.Millisecond) // the render is under way
		stall := get()
		tree := <-rendered
		t.Logf("the GET took %v beside a tree that took %v", stall, tree)
		if tree < stall+10*time.Millisecond {
			t.Fatalf("the tree (%v) was done before the GET (%v) could wait behind it; render a larger table", tree, stall)
		}
		if stall <= preemptBound {
			return
		}
		stalls = append(stalls, stall)
	}
	t.Fatalf("relayed GETs waited %v behind console renders; want one ≤ %v", stalls, preemptBound)
}
