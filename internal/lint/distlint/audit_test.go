package distlint_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"webcluster/internal/lint/distlint"
	"webcluster/internal/lint/load"
)

// auditMutation is one row of the mutation audit (DESIGN.md §15) that an
// analyzer catches: a single edit to the current tree that compiles,
// breaks the analyzer's invariant, and that the analyzer must report in
// the function the edit lands in (a deleted release or deadline is
// reported where its absence shows: the return, the write).
type auditMutation struct {
	id, analyzer, file, old, new string
}

// auditMutations are the rows the kept analyzers report. PE1, PE4, PE8,
// CW2, DC2, FH4 and LS1–LS3 fail nothing else in `make ci` — no test,
// -race, stress or allocguard line — which is why their analyzers stay.
// PE8 and PE9 are the response cache's entry references: a Get whose
// reference is never released, and a fill released before the reply
// serves it (TestCacheRecycleSafety fails on that one under -race).
var auditMutations = []auditMutation{
	{"PE1", "pooledescape", "internal/distributor/exchange.go",
		`	rr := x.d.pools.AcquireRequest()
	defer x.d.pools.ReleaseRequest(rr)
`,
		`	rr := x.d.pools.AcquireRequest()
`},
	{"PE2", "pooledescape", "internal/httpx/stream.go",
		`		if p := acquirePipe(); p != nil {
			defer releasePipe(p)
			m, err := spliceBody(tdst, tsrc, p, total-written, total)
`,
		`		if p := acquirePipe(); p != nil {
			m, err := spliceBody(tdst, tsrc, p, total-written, total)
`},
	{"PE3", "pooledescape", "internal/distributor/exchange.go",
		`	defer x.d.pools.ReleaseRequest(rr)
	rr.Method = "GET"
	rr.Target = x.req.Target
	rr.Path = x.req.Path
	rr.Proto = httpx.Proto11
	rr.TraceID = x.req.TraceID
	rr.Header.Set("If-None-Match", stale.Stored.ETag)
	return x.fetch(rr)
`,
		`	rr.Method = "GET"
	rr.Target = x.req.Target
	rr.Path = x.req.Path
	rr.Proto = httpx.Proto11
	rr.TraceID = x.req.TraceID
	rr.Header.Set("If-None-Match", stale.Stored.ETag)
	x.d.pools.ReleaseRequest(rr)
	return x.fetch(rr)
`},
	{"PE4", "pooledescape", "internal/distributor/distributor.go",
		`			x.replyError(413, "request body too large\n", outTooLarge)
			break
`,
		`			x.replyError(413, "request body too large\n", outTooLarge)
			d.pools.ReleaseRequest(req)
			break
`},
	{"PE5", "pooledescape", "internal/distributor/distributor.go",
		`	if err := httpx.ReadResponseHeaderInto(pc.Reader, resp); err != nil {
`,
		`	br := d.pools.AcquireReader(pc.Conn)
	pc.Reader = br
	if err := httpx.ReadResponseHeaderInto(pc.Reader, resp); err != nil {
`},
	{"PE8", "pooledescape", "internal/distributor/exchange.go",
		`	e, state := c.Get(path)
	defer c.Release(e)
`,
		`	e, state := c.Get(path)
`},
	{"PE9", "pooledescape", "internal/distributor/exchange.go",
		`	defer d.cache.Release(e)
	f.Finish(e, nil)
	return x.replyCached(e, "MISS")
`,
		`	f.Finish(e, nil)
	d.cache.Release(e)
	return x.replyCached(e, "MISS")
`},
	{"CW1", "cowdiscipline", "internal/urltable/urltable.go",
		`	t.root.Store(replaceAt(root, segs, ne))
	return nil
`,
		`	n := root
	for _, seg := range segs {
		n = n.children[seg]
	}
	n.leaf = ne
	return nil
`},
	{"CW2", "cowdiscipline", "internal/urltable/urltable.go",
		`func (t *Table) SetPinned(path string, pinned bool) error {
	return t.mutateEntry(path, func(ne *entry) error {
		ne.pinned = pinned
		return nil
	})
}
`,
		`func (t *Table) SetPinned(path string, pinned bool) error {
	segs, err := splitPath(path)
	if err != nil {
		return err
	}
	t.writeMu.Lock()
	defer t.writeMu.Unlock()
	n := t.root.Load()
	for _, seg := range segs {
		if n = n.children[seg]; n == nil {
			return fmt.Errorf("%w: %q", ErrNotFound, path)
		}
	}
	if n.leaf == nil {
		return fmt.Errorf("%w: %q", ErrNotFound, path)
	}
	n.leaf.pinned = pinned
	return nil
}
`},
	{"CW3", "cowdiscipline", "internal/distributor/exchange.go",
		`	code, sent := e.Stored.StatusCode, int64(len(e.Stored.Body))
`,
		`	if verdict == "REVALIDATED" {
		e.Stored.Date = httpx.CurrentDate()
	}
	code, sent := e.Stored.StatusCode, int64(len(e.Stored.Body))
`},
	{"DC2", "deadlinecheck", "internal/distributor/distributor.go",
		`		c, err := net.DialTimeout("tcp", addr, 2*time.Second)
`,
		`		c, err := net.Dial("tcp", addr)
`},
	{"DC3", "deadlinecheck", "internal/core/core.go",
		`	defer func() { _ = conn.Close() }()
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return nil, fmt.Errorf("core: arming deadline: %w", err)
	}
`,
		`	defer func() { _ = conn.Close() }()
`},
	{"FH2", "faulthook", "internal/mgmt/replication.go",
		`	if err := b.faults.Fail("backup.dial"); err != nil {
		return fmt.Errorf("backup: connecting to primary: %w", err)
	}
	conn, err := net.DialTimeout("tcp", b.replAddr, b.timeout)
	if err != nil {
		return fmt.Errorf("backup: connecting to primary: %w", err)
	}
	conn = b.faults.Conn("backup.conn", conn)
`,
		`	conn, err := net.DialTimeout("tcp", b.replAddr, b.timeout)
	if err != nil {
		return fmt.Errorf("backup: connecting to primary: %w", err)
	}
`},
	{"FH3", "faulthook", "internal/nfs/nfs.go",
		`	timeout, in := c.timeout, c.faults
	if n := len(c.free); n > 0 {
		cc := c.free[n-1]
		c.free = c.free[:n-1]
		c.mu.Unlock()
		return cc, nil
	}
	c.mu.Unlock()
	if err := in.Fail("nfs.dial"); err != nil {
		return nil, fmt.Errorf("nfs: dial %s: %w", c.addr, err)
	}
`,
		`	timeout := c.timeout
	if n := len(c.free); n > 0 {
		cc := c.free[n-1]
		c.free = c.free[:n-1]
		c.mu.Unlock()
		return cc, nil
	}
	c.mu.Unlock()
`},
	{"FH4", "faulthook", "internal/distributor/distributor.go",
		`	for _, n := range opts.Cluster.Nodes {
		addrs[n.ID] = n.Addr
`,
		`	for _, n := range opts.Cluster.Nodes {
		// refuse a back end that does not accept connections
		c, err := net.DialTimeout("tcp", n.Addr, 2*time.Second)
		if err != nil {
			return nil, err
		}
		_ = c.Close()
		addrs[n.ID] = n.Addr
`},
	{"LS1", "lockscope", "internal/nfs/nfs.go",
		`	c.mu.Lock()
	timeout := c.timeout
	c.mu.Unlock()
`,
		`	c.mu.Lock()
	defer c.mu.Unlock()
	timeout := c.timeout
`},
	{"LS2", "lockscope", "internal/mgmt/broker.go",
		`	if c.conn == nil {
		if err := c.redial(deadline); err != nil {
			return response{}, err
		}
	}
`,
		`	if c.conn == nil {
		if c.closed {
			return response{}, errors.New("mgmt: broker client is closed")
		}
		timeout := DefaultBrokerTimeout
		if !deadline.IsZero() {
			timeout = time.Until(deadline)
		}
		conn, err := net.DialTimeout("tcp", c.addr, timeout)
		if c.onRedial != nil {
			c.onRedial(err)
		}
		if err != nil {
			return response{}, fmt.Errorf("mgmt: redialing broker %s: %w", c.addr, err)
		}
		c.conn, c.br = conn, bufio.NewReader(conn)
	}
`},
	{"LS3", "lockscope", "internal/mgmt/replication.go",
		`func (b *Backup) Stop() {
	b.stopOnce.Do(func() { close(b.stopped) })
`,
		`func (b *Backup) Stop() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.stopOnce.Do(func() { close(b.stopped) })
`},
}

// TestLintAudit is `make lint-audit`: on a copy of the module, every
// audit row's edit must draw its analyzer's report in the edited
// function, and the packages the rows edit must lint clean unedited. A
// row whose edit no longer applies fails too — the tree moved, so the
// audit needs re-running, not this row deleting.
func TestLintAudit(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks a module copy once per mutation; run by make lint-audit")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, modPath, err := load.FindModule(wd)
	if err != nil {
		t.Fatal(err)
	}
	tree := t.TempDir()
	copyModule(t, root, tree)

	lint := func(t *testing.T, dirs ...string) []distlint.Finding {
		t.Helper()
		l := load.NewLoader(tree, modPath)
		var pkgs []*load.Package
		for _, dir := range dirs {
			pkg, err := l.LoadDir(filepath.Join(tree, dir), modPath+"/"+dir)
			if err != nil {
				t.Fatal(err)
			}
			pkgs = append(pkgs, pkg)
		}
		r := distlint.NewRunner(l, distlint.Suite())
		r.Audit = true
		findings, err := r.Run(pkgs...)
		if err != nil {
			t.Fatal(err)
		}
		return findings
	}

	seen := map[string]bool{}
	var dirs []string
	for _, m := range auditMutations {
		if dir := filepath.Dir(m.file); !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, f := range lint(t, dirs...) {
		t.Errorf("unmutated tree: %s", f)
	}

	for _, m := range auditMutations {
		t.Run(m.id, func(t *testing.T) {
			path := filepath.Join(tree, m.file)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			src := string(data)
			if n := strings.Count(src, m.old); n != 1 {
				t.Fatalf("the edit matches %s %d times, want once: re-run the audit (DESIGN.md §15)", m.file, n)
			}
			mutated := strings.Replace(src, m.old, m.new, 1)
			if err := os.WriteFile(path, []byte(mutated), 0o644); err != nil {
				t.Fatal(err)
			}
			defer func() { _ = os.WriteFile(path, data, 0o644) }()
			edited := strings.Count(src[:strings.Index(src, m.old)], "\n") + 1
			first, last := enclosingFunc(t, path, mutated, edited)

			findings := lint(t, filepath.Dir(m.file))
			for _, f := range findings {
				if f.Analyzer == m.analyzer && f.Pos.Filename == path && f.Pos.Line >= first && f.Pos.Line <= last {
					return
				}
			}
			t.Errorf("%s reported nothing in %s:%d-%d; findings: %v", m.analyzer, m.file, first, last, findings)
		})
	}
}

// enclosingFunc returns the line span of the function declaration in src
// that contains line.
func enclosingFunc(t *testing.T, path, src string, line int) (first, last int) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			first, last = fset.Position(fd.Pos()).Line, fset.Position(fd.End()).Line
			if first <= line && line <= last {
				return first, last
			}
		}
	}
	t.Fatalf("%s:%d is in no function", path, line)
	return 0, 0
}

// copyModule copies the module's Go sources and go.mod from src to dst,
// leaving out the benchmark module, its build cache and version control.
func copyModule(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch rel {
			case "bench", ".bench_build", ".git":
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		if !strings.HasSuffix(rel, ".go") && rel != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}
