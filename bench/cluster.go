package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"webcluster/internal/config"
	"webcluster/internal/mgmt"
)

const (
	// consoleTimeout replaces the console client's 5 s default, which a
	// large insert on a busy box can overrun.
	consoleTimeout = 60 * time.Second
	// startTimeout bounds a child's start-up: from exec to the line that
	// names its listeners.
	startTimeout = 20 * time.Second
	// stopTimeout bounds a child's graceful exit; backend.Server.Close is
	// a known hang (ROADMAP, first open item) and must not hang the
	// benchmark.
	stopTimeout = 10 * time.Second
)

// forcedKills counts children that had to be SIGKILLed after stopTimeout.
var forcedKills atomic.Int64

// buildBinaries compiles cmd/distributor and cmd/backend from the module
// at root into binDir and reports how long that took.
func buildBinaries(root, binDir string) (time.Duration, error) {
	start := time.Now()
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return 0, err
	}
	abs, err := filepath.Abs(binDir)
	if err != nil {
		return 0, err
	}
	cmd := exec.Command("go", "build", "-o", abs+string(filepath.Separator), "./cmd/distributor", "./cmd/backend")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	// the compiler gets every CPU, not the load generator's one
	err = startOn(cmd, placement.all)
	if err == nil {
		err = cmd.Wait()
	}
	if err != nil {
		return 0, fmt.Errorf("building cmd/distributor and cmd/backend in %s: %w", root, err)
	}
	return time.Since(start), nil
}

// child is one spawned process and the addresses its start-up lines named.
type child struct {
	cmd   *exec.Cmd
	addrs map[string]string // "web", "broker", "front", "console", "admin"
	done  chan struct{}     // closed once Wait has returned
}

// children tracks every live child so any exit path can kill them.
var children struct {
	sync.Mutex
	live map[*child]struct{}
}

// killAll SIGKILLs every live child's process group. It is the last
// resort of the signal handler and of failed set-ups.
func killAll() {
	children.Lock()
	defer children.Unlock()
	for c := range children.live {
		_ = syscall.Kill(-c.cmd.Process.Pid, syscall.SIGKILL)
	}
}

// parseStartLine extracts listener addresses from one start-up line of
// cmd/backend or cmd/distributor.
func parseStartLine(line string, addrs map[string]string) {
	fields := strings.Fields(line)
	for i := 0; i+1 < len(fields); i++ {
		switch {
		case fields[i] == "web" || fields[i] == "broker":
			addrs[fields[i]] = fields[i+1]
		case fields[i] == "serving" && fields[i+1] == "at" && i+2 < len(fields):
			addrs["front"] = fields[i+2]
		case fields[i] == "console" && fields[i+1] == "at" && i+2 < len(fields):
			addrs["console"] = fields[i+2]
		case fields[i] == "admin" && fields[i+1] == "at" && i+2 < len(fields):
			a := strings.TrimPrefix(fields[i+2], "http://")
			addrs["admin"] = strings.TrimSuffix(a, "/metrics")
		}
	}
}

// spawn starts bin with args, and env added to the environment, in its
// own process group and returns once its standard output has named every
// listener in need.
func spawn(name, bin string, need, env []string, args ...string) (*child, error) {
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), env...)
	cmd.Stderr = os.Stderr
	// own process group, so one signal reaches everything the child
	// starts; Pdeathsig covers a harness that dies without cleaning up
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := startOn(cmd, placement.cluster); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	c := &child{cmd: cmd, addrs: map[string]string{}, done: make(chan struct{})}
	children.Lock()
	if children.live == nil {
		children.live = map[*child]struct{}{}
	}
	children.live[c] = struct{}{}
	children.Unlock()

	ready := make(chan error, 1)
	go func() {
		defer close(c.done)
		sc := bufio.NewScanner(out)
		reported := false
		for sc.Scan() {
			if reported {
				continue // drain until exit so the child never blocks on a full pipe
			}
			parseStartLine(sc.Text(), c.addrs)
			complete := true
			for _, k := range need {
				complete = complete && c.addrs[k] != ""
			}
			if complete {
				reported = true
				ready <- nil
			}
		}
		_ = cmd.Wait()
		children.Lock()
		delete(children.live, c)
		children.Unlock()
		if !reported {
			ready <- fmt.Errorf("%s exited before naming %v", name, need)
		}
	}()
	select {
	case err := <-ready:
		if err != nil {
			return nil, err
		}
		return c, nil
	case <-time.After(startTimeout):
		c.stop()
		return nil, fmt.Errorf("%s did not start within %v", name, startTimeout)
	}
}

// stop asks the child to exit and waits, escalating to SIGKILL of its
// process group after stopTimeout.
func (c *child) stop() {
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.done:
	case <-time.After(stopTimeout):
		forcedKills.Add(1)
		_ = syscall.Kill(-c.cmd.Process.Pid, syscall.SIGKILL)
		<-c.done
	}
}

// clockTick is the kernel's USER_HZ; Linux has fixed it at 100 on every
// architecture Go runs on.
const clockTick = 100

// readCPU reads a process's user + system CPU time from /proc/<pid>/stat.
func readCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStat(raw)
}

// parseStat decodes the CPU time of one /proc/<pid>/stat line. The command
// name may hold spaces and parentheses, so fields are counted from the last
// ')'.
func parseStat(raw []byte) (time.Duration, error) {
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed stat line %q", raw)
	}
	f := strings.Fields(string(raw[i+1:]))
	// f[0] is field 3 (state): utime is field 14, stime 15
	if len(f) < 13 {
		return 0, fmt.Errorf("short stat line %q", raw)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed stat line %q", raw)
	}
	return time.Duration(utime+stime) * (time.Second / clockTick), nil
}

// peakRSS reads a process's resident-set high-water mark (VmHWM) in
// bytes. The instantaneous RSS of a Go process swings with its GC cycle;
// the peak is what has to fit in the machine.
func peakRSS(pid int) (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseInt(f[1], 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// selfCPU is the harness process's own user + system time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cluster is one running deployment: a distributor in front of two
// identical in-memory back ends, all on loopback.
type cluster struct {
	dist     *child
	backends []*child
	console  *mgmt.Console
	dir      string
}

// nodeSpec is a back end's hardware description at cmd/backend's flag
// defaults.
func nodeSpec(id config.NodeID) config.NodeSpec {
	return config.NodeSpec{ID: id, CPUMHz: 350, MemoryMB: 128, DiskGB: 8, Disk: config.DiskSCSI, Platform: config.LinuxApache}
}

// startCluster spawns the three processes for w. admin turns on the
// -admin endpoint of each (the traced pass scrapes them).
func startCluster(binDir, runDir string, w *workloadDef, admin bool) (_ *cluster, err error) {
	dir, err := os.MkdirTemp(runDir, "cluster-")
	if err != nil {
		return nil, err
	}
	cl := &cluster{dir: dir}
	defer func() {
		if err != nil {
			cl.stop()
		}
	}()
	spec := config.ClusterSpec{DistributorCPUMHz: 350}
	for _, id := range []config.NodeID{nodeA, nodeB} {
		args := []string{"-id", string(id), "-listen", "127.0.0.1:0", "-broker", "127.0.0.1:0"}
		need := []string{"web", "broker"}
		if admin {
			args = append(args, "-admin", "127.0.0.1:0")
			need = append(need, "admin")
		}
		b, err := spawn(string(id), filepath.Join(binDir, "backend"), need, nil, args...)
		if err != nil {
			return nil, err
		}
		cl.backends = append(cl.backends, b)
		node := nodeSpec(id)
		node.Addr, node.BrokerAddr = b.addrs["web"], b.addrs["broker"]
		spec.Nodes = append(spec.Nodes, node)
	}
	specFile := filepath.Join(dir, "cluster.json")
	if err := config.Save(specFile, spec); err != nil {
		return nil, err
	}
	args := append([]string{"-cluster", specFile, "-listen", "127.0.0.1:0", "-console", "127.0.0.1:0"}, w.distFlags()...)
	need := []string{"front", "console"}
	if admin {
		args = append(args, "-admin", "127.0.0.1:0")
		need = append(need, "admin")
	}
	if cl.dist, err = spawn("distributor", filepath.Join(binDir, "distributor"), need, nil, args...); err != nil {
		return nil, err
	}
	if cl.console, err = dialConsole(cl.dist.addrs["console"]); err != nil {
		return nil, err
	}
	return cl, nil
}

// dialConsole connects a console client and polls the nodes op until the
// controller reports both brokers attached.
func dialConsole(addr string) (*mgmt.Console, error) {
	ctx, cancel := context.WithTimeout(context.Background(), startTimeout)
	defer cancel()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	var lastErr error
	for {
		c, err := mgmt.DialConsole(addr)
		if err == nil {
			c.SetTimeout(consoleTimeout)
			resp, derr := c.Do(mgmt.ConsoleRequest{Op: "nodes"})
			if derr == nil && len(resp.Nodes) == 2 {
				return c, nil
			}
			_ = c.Close()
			err = derr
		}
		lastErr = err
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("console at %s not ready: %v", addr, lastErr)
		case <-tick.C:
		}
	}
}

// place inserts every object of the site through the console's insert
// op, one by one (loadsite overruns the console client's default
// deadline at this scale), and returns each op's latency.
func (cl *cluster) place(s *site) ([]time.Duration, error) {
	lat := make([]time.Duration, 0, len(s.objects))
	for _, o := range s.objects {
		start := time.Now()
		_, err := cl.console.Do(mgmt.ConsoleRequest{
			Op: "insert", Path: o.path, Size: int64(len(o.data)), Data: o.data, Nodes: o.nodes,
		})
		if err != nil {
			return nil, fmt.Errorf("placing %s: %w", o.path, err)
		}
		lat = append(lat, time.Since(start))
	}
	return lat, nil
}

// cpu reads the CPU time of every process of the cluster, distributor
// first.
func (cl *cluster) cpu() ([]time.Duration, error) {
	var out []time.Duration
	for _, c := range append([]*child{cl.dist}, cl.backends...) {
		t, err := readCPU(c.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// stop shuts the cluster down, distributor first, within stopTimeout per
// process, and removes its scratch directory.
func (cl *cluster) stop() {
	if cl.console != nil {
		_ = cl.console.Close()
	}
	var wg sync.WaitGroup
	for _, c := range append([]*child{cl.dist}, cl.backends...) {
		if c == nil {
			continue
		}
		wg.Add(1)
		go func(c *child) {
			defer wg.Done()
			c.stop()
		}(c)
	}
	wg.Wait()
	_ = os.RemoveAll(cl.dir)
}

// establishedTo counts ESTABLISHED TCP sockets whose remote end is one
// of addrs (host:port on 127.0.0.1), read from /proc/net/tcp: the
// distributor's side of its back-end connections, seen from outside.
func establishedTo(addrs ...string) (int, error) {
	want := map[string]bool{}
	for _, a := range addrs {
		i := strings.LastIndexByte(a, ':')
		port, err := strconv.Atoi(a[i+1:])
		if i < 0 || err != nil {
			return 0, fmt.Errorf("bad address %q", a)
		}
		want[fmt.Sprintf("0100007F:%04X", port)] = true // 127.0.0.1, little-endian
	}
	f, err := os.Open("/proc/net/tcp")
	if err != nil {
		return 0, err
	}
	defer func() { _ = f.Close() }()
	raw, err := io.ReadAll(f)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, line := range strings.Split(string(raw), "\n") {
		// sl local_address rem_address st ...; state 01 is ESTABLISHED
		if cols := strings.Fields(line); len(cols) > 3 && want[cols[2]] && cols[3] == "01" {
			n++
		}
	}
	return n, nil
}
