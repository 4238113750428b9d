package webcluster

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"webcluster/internal/config"
	"webcluster/internal/mgmt"
	"webcluster/internal/testutil"
)

// The start-up lines of cmd/backend and cmd/distributor, in the shapes
// bench/cluster.go:parseStartLine reads listener addresses out of. The
// frozen harness starts every process on port 0 and learns where it
// listens from these lines alone, so they are an interface.
var (
	nodeUpLine  = regexp.MustCompile(`^node (\S+) up: web (\S+) broker (\S+) `)
	servingLine = regexp.MustCompile(`^distributor serving at (\S+) over \d+ nodes$`)
	consoleLine = regexp.MustCompile(`^console at (\S+)$`)
	adminLine   = regexp.MustCompile(`^admin at http://(\S+)/metrics$`)
)

// binaries compiles ./cmd/... for one process-level test.
func binaries(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("process-level integration")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin, "./cmd/...")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building binaries: %v", err)
	}
	return bin
}

// startBackends starts one cmd/backend per id on ephemeral ports and
// returns the cluster spec read back from their start-up lines.
func startBackends(t *testing.T, bin string, ids ...string) config.ClusterSpec {
	t.Helper()
	spec := config.ClusterSpec{DistributorCPUMHz: 350}
	for _, id := range ids {
		p := startProcess(t, exec.Command(filepath.Join(bin, "backend"),
			"-id", id, "-listen", "127.0.0.1:0", "-broker", "127.0.0.1:0", "-admin", "127.0.0.1:0"))
		p.await(t, adminLine)
		up := p.await(t, nodeUpLine)
		if up[1] != id {
			t.Fatalf("node line names %q, want %q", up[1], id)
		}
		spec.Nodes = append(spec.Nodes, config.NodeSpec{
			ID: config.NodeID(id), CPUMHz: 350, MemoryMB: 128,
			DiskGB: 8, Disk: config.DiskSCSI, Platform: config.LinuxApache,
			Addr: up[2], BrokerAddr: up[3],
		})
	}
	return spec
}

func writeSpec(t *testing.T, spec config.ClusterSpec) string {
	t.Helper()
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(t.TempDir(), "cluster.json")
	if err := os.WriteFile(file, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return file
}

// TestProcessLevelDeployment exercises the full multi-process topology the
// README documents: three backend processes, a distributor process with a
// console endpoint, the console CLI loading a site, and webbench driving
// load — all through the real binaries, started the way bench/ starts
// them: on port 0, addresses taken from the start-up lines.
func TestProcessLevelDeployment(t *testing.T) {
	bin := binaries(t)
	spec := startBackends(t, bin, "n1", "n2", "n3")
	dist := startProcess(t, exec.Command(filepath.Join(bin, "distributor"),
		"-cluster", writeSpec(t, spec),
		"-listen", "127.0.0.1:0", "-console", "127.0.0.1:0", "-admin", "127.0.0.1:0",
	))
	frontAddr := dist.await(t, servingLine)[1]
	consoleAddr := dist.await(t, consoleLine)[1]
	adminAddr := dist.await(t, adminLine)[1]
	if resp, err := getOnce(adminAddr, "/healthz"); err != nil || resp.StatusCode != 200 {
		t.Fatalf("admin /healthz = %v, %v", resp, err)
	}

	// Load a site through the console CLI.
	out := runCLI(t, filepath.Join(bin, "console"),
		"-addr", consoleAddr, "loadsite",
		"-objects", "200", "-workload", "B", "-policy", "type", "-seed", "7")
	if !strings.Contains(out, "placed 200 objects") {
		t.Fatalf("loadsite output = %q", out)
	}

	// Tree shows content.
	out = runCLI(t, filepath.Join(bin, "console"), "-addr", consoleAddr, "tree")
	if !strings.Contains(out, ".html") {
		t.Fatalf("tree output = %q", out)
	}

	// Drive load with webbench; assert zero errors.
	out = runCLI(t, filepath.Join(bin, "webbench"),
		"-addr", frontAddr, "-clients", "4", "-duration", "2s",
		"-workload", "B", "-objects", "200", "-seed", "7")
	if !strings.Contains(out, " 0 errors") {
		t.Fatalf("webbench reported errors:\n%s", out)
	}

	// Node status via console.
	out = runCLI(t, filepath.Join(bin, "console"), "-addr", consoleAddr, "status", "n1")
	if !strings.Contains(out, "node n1:") {
		t.Fatalf("status output = %q", out)
	}

	// The synthetic dynamic page, byte for byte what bench/site.go's
	// dynamicBody expects of a verified response.
	runCLI(t, filepath.Join(bin, "console"), "-addr", consoleAddr,
		"insert", "/asp/probe.asp", "-size", "16", "-nodes", "n2")
	resp, err := getOnce(frontAddr, "/asp/probe.asp")
	if err != nil {
		t.Fatal(err)
	}
	if want := "<html>asp from n2: /asp/probe.asp?</html>\n"; resp.StatusCode != 200 || string(resp.Body) != want {
		t.Fatalf("dynamic GET = %d %q, want %q", resp.StatusCode, resp.Body, want)
	}
}

// TestPromotedBackupHasManagementPlane: §2.3's backup "takes over the job
// of the primary" — all of it. After the primary is killed, the
// -backup-of process must be serving the console it was given a flag for,
// an insert through that console must be routable, and an update must
// purge the response cache the -cache-mb flag asked for. (The backup used
// to promote a bare distributor and ignore every flag but -listen.)
func TestPromotedBackupHasManagementPlane(t *testing.T) {
	bin := binaries(t)
	specFile := writeSpec(t, startBackends(t, bin, "n1", "n2"))
	primary := startProcess(t, exec.Command(filepath.Join(bin, "distributor"),
		"-cluster", specFile, "-listen", "127.0.0.1:0", "-console", "127.0.0.1:0", "-repl", "127.0.0.1:0"))
	frontAddr := primary.await(t, servingLine)[1]
	primaryConsole := primary.await(t, consoleLine)[1]
	replAddr := primary.await(t, regexp.MustCompile(`^replicating state at (\S+)$`))[1]

	insert := func(consoleAddr, op, path, body string) {
		t.Helper()
		console, err := mgmt.DialConsole(consoleAddr)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = console.Close() }()
		req := mgmt.ConsoleRequest{Op: op, Path: path, Data: []byte(body)}
		if op == "insert" {
			req.Nodes = []config.NodeID{"n1"}
		}
		if _, err := console.Do(req); err != nil {
			t.Fatalf("%s %s at %s: %v", op, path, consoleAddr, err)
		}
	}
	get := func(path string) (body, cache string) {
		t.Helper()
		resp, err := getOnce(frontAddr, path)
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("GET %s = %v, %v", path, resp, err)
		}
		return string(resp.Body), resp.Header.Get("X-Dist-Cache")
	}

	// Placed before the backup connects, so its first snapshot has it.
	insert(primaryConsole, "insert", "/docs/before.html", "placed at the primary\n")
	backup := startProcess(t, exec.Command(filepath.Join(bin, "distributor"),
		"-backup-of", replAddr, "-listen", frontAddr, "-console", "127.0.0.1:0",
		"-cache-mb", "8", "-cache-fresh", "1m"))
	backup.await(t, regexp.MustCompile(`^backup mode: monitoring `))
	time.Sleep(500 * time.Millisecond) // let the first snapshot land
	primary.kill()

	backup.await(t, regexp.MustCompile(`^TOOK OVER: serving at `))
	if got := backup.await(t, servingLine)[1]; got != frontAddr {
		t.Fatalf("successor serves at %s, want the primary's %s", got, frontAddr)
	}
	backupConsole := backup.await(t, consoleLine)[1]

	if body, _ := get("/docs/before.html"); body != "placed at the primary\n" {
		t.Fatalf("replicated object = %q", body)
	}
	insert(backupConsole, "insert", "/docs/after.html", "version 1\n")
	if body, cache := get("/docs/after.html"); body != "version 1\n" || cache != "MISS" {
		t.Fatalf("first GET = %q, X-Dist-Cache %q", body, cache)
	}
	if body, cache := get("/docs/after.html"); body != "version 1\n" || cache != "HIT" {
		t.Fatalf("second GET = %q, X-Dist-Cache %q; the successor has no cache", body, cache)
	}
	insert(backupConsole, "update", "/docs/after.html", "version 2\n")
	if body, _ := get("/docs/after.html"); body != "version 2\n" {
		t.Fatalf("GET after update = %q: the purge did not reach the successor's cache", body)
	}
}

// process is a running child whose standard output is kept line by line.
type process struct {
	cmd   *exec.Cmd
	mu    sync.Mutex
	lines []string
}

// startProcess launches cmd, records its standard output and guarantees
// cleanup.
func startProcess(t *testing.T, cmd *exec.Cmd) *process {
	t.Helper()
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting %v: %v", cmd.Args, err)
	}
	p := &process{cmd: cmd}
	read := make(chan struct{})
	go func() {
		defer close(read)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			fmt.Fprintln(os.Stderr, sc.Text())
			p.mu.Lock()
			p.lines = append(p.lines, sc.Text())
			p.mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		p.kill()
		<-read
	})
	return p
}

// kill ends the child as a crash would.
func (p *process) kill() {
	_ = p.cmd.Process.Kill()
	_, _ = p.cmd.Process.Wait()
}

// await waits for an output line matching re and returns its submatches.
func (p *process) await(t *testing.T, re *regexp.Regexp) []string {
	t.Helper()
	var m []string
	testutil.Eventually(t, 10*time.Second, func() bool {
		p.mu.Lock()
		defer p.mu.Unlock()
		for _, line := range p.lines {
			if m = re.FindStringSubmatch(line); m != nil {
				return true
			}
		}
		return false
	}, "%s never printed a line matching %s", filepath.Base(p.cmd.Path), re)
	return m
}

// runCLI runs a one-shot command and returns its combined output.
func runCLI(t *testing.T, name string, args ...string) string {
	t.Helper()
	out, err := exec.Command(name, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(name), args, err, out)
	}
	return string(out)
}
