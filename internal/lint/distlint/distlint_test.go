package distlint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"webcluster/internal/lint/distlint"
	"webcluster/internal/lint/load"
)

func loadAuditFixture(t *testing.T) (*load.Loader, *load.Package) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, modPath, err := load.FindModule(wd)
	if err != nil {
		t.Fatal(err)
	}
	l, err := load.NewLoaderAt(wd)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(wd, "testdata", "audit")
	rel, err := filepath.Rel(root, dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir(dir, modPath+"/"+filepath.ToSlash(rel))
	if err != nil {
		t.Fatal(err)
	}
	return l, pkg
}

// TestSuppressionAudit pins the `make lint` contract for directives:
// every //distlint:ignore must name a known analyzer, carry a reason,
// and suppress at least one diagnostic — anything else is a finding.
func TestSuppressionAudit(t *testing.T) {
	l, pkg := loadAuditFixture(t)
	r := distlint.NewRunner(l, distlint.Suite())
	r.Unscoped = true
	r.Audit = true
	findings, err := r.Run(pkg)
	if err != nil {
		t.Fatal(err)
	}
	var msgs []string
	for _, f := range findings {
		msgs = append(msgs, f.String())
	}
	joined := strings.Join(msgs, "\n")
	for _, want := range []string{
		"malformed suppression: want //distlint:ignore <analyzer> <reason>",
		`suppression names unknown analyzer "nosuchcheck"`,
		"stale suppression: pooledescape reports no diagnostic here",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("audit findings missing %q; got:\n%s", want, joined)
		}
	}
	// The used directive must not surface — neither as the diagnostic it
	// suppresses nor as a stale-suppression report.
	if strings.Contains(joined, "not released") {
		t.Errorf("suppressed pooledescape diagnostic leaked through:\n%s", joined)
	}
	if len(findings) != 3 {
		t.Errorf("got %d findings, want exactly 3:\n%s", len(findings), joined)
	}
}

// TestAuditOffHonorsSuppressions checks the fixture-mode contract:
// without Audit, directives still suppress but are never themselves
// reported, so a single-analyzer run is not noisy about other checks.
func TestAuditOffHonorsSuppressions(t *testing.T) {
	l, pkg := loadAuditFixture(t)
	r := distlint.NewRunner(l, distlint.Suite())
	r.Unscoped = true
	findings, err := r.Run(pkg)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		if f.Analyzer != "distlint" {
			t.Errorf("unexpected analyzer finding without audit: %s", f)
		}
		if strings.Contains(f.Message, "stale suppression") || strings.Contains(f.Message, "unknown analyzer") {
			t.Errorf("audit-only finding reported with Audit off: %s", f)
		}
	}
}

// TestInScopeNamesOneFileOfAPackage: a scope entry ending in .go admits
// that file of its package and no other, and the package itself when
// the Runner asks before looking at files.
func TestInScopeNamesOneFileOfAPackage(t *testing.T) {
	cases := []struct {
		pkg, file string
		want      bool
	}{
		{"webcluster/internal/mgmt", "", true},
		{"webcluster/internal/mgmt", "/src/internal/mgmt/replication.go", true},
		{"webcluster/internal/mgmt", "/src/internal/mgmt/broker.go", false},
		{"webcluster/internal/distributor", "/src/internal/distributor/exchange.go", true},
		{"webcluster/internal/core", "", false},
	}
	for _, tc := range cases {
		if got := distlint.InScope("faulthook", tc.pkg, tc.file); got != tc.want {
			t.Errorf("faulthook in scope of %s %q = %v, want %v", tc.pkg, tc.file, got, tc.want)
		}
	}
}
