// Package distlint assembles the repo's analyzer suite: the checks that
// machine-enforce the data-path invariants no test in the tree would
// notice breaking (pooled values, copy-on-write snapshots, I/O deadlines,
// fault-injector reach, blocking under a lock; see DESIGN.md §10 and
// §15, whose mutation audit is why these five and no others), the
// per-package scoping rules, and the one sanctioned suppression form
//
//	//distlint:ignore <analyzer> <reason>
//
// placed on the flagged line or the line directly above it. A
// suppression without a reason is itself reported, so every silenced
// finding carries an explanation in the tree.
//
// The suite runs through a Runner holding one analysis.Module for the
// whole invocation, so per-function summaries give every analyzer
// interprocedural reach. In audit mode (the whole-module `make lint`
// run) the Runner also verifies every suppression directive: it must
// name a known analyzer, carry a reason, and actually suppress a
// diagnostic — a stale directive is itself a finding, so suppressions
// cannot outlive the code they excuse.
package distlint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"

	"webcluster/internal/lint/analysis"
	"webcluster/internal/lint/cowdiscipline"
	"webcluster/internal/lint/deadlinecheck"
	"webcluster/internal/lint/faulthook"
	"webcluster/internal/lint/load"
	"webcluster/internal/lint/lockscope"
	"webcluster/internal/lint/pooledescape"
)

// Finding is one reported (unsuppressed) diagnostic.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
}

// Suite returns the full analyzer suite in reporting order.
func Suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		pooledescape.Analyzer,
		cowdiscipline.Analyzer,
		deadlinecheck.Analyzer,
		faulthook.Analyzer,
		lockscope.Analyzer,
	}
}

// scopes maps analyzer name → the internal packages it applies to. An
// empty list means every package. deadlinecheck and faulthook are
// scoped to the layers that own outbound connections: the paper's data
// plane (distributor/conntrack/backend/nfs/l4router) plus, for
// deadlines, the management plane and monitor whose wedged calls the
// chaos suite exercises.
var scopes = map[string][]string{
	"deadlinecheck": {
		"internal/distributor",
		"internal/mgmt",
		"internal/monitor",
		"internal/conntrack",
		"internal/l4router",
		"internal/nfs",
		"internal/core",
	},
	"faulthook": {
		"internal/distributor",
		"internal/conntrack",
		"internal/backend",
		"internal/nfs",
		"internal/l4router",
	},
}

// InScope reports whether the named analyzer applies to pkgPath.
// Analyzer fixtures and the lint framework itself are never analyzed.
func InScope(name, pkgPath string) bool {
	if strings.Contains(pkgPath, "internal/lint") {
		return false
	}
	scope, ok := scopes[name]
	if !ok {
		return true
	}
	for _, s := range scope {
		if strings.HasSuffix(pkgPath, s) {
			return true
		}
	}
	return false
}

// ignoreDirective is one parsed //distlint:ignore comment.
type ignoreDirective struct {
	file     string
	line     int
	analyzer string
	reason   string
	pos      token.Pos
	// used records whether the directive suppressed at least one
	// diagnostic during the run; audit mode reports unused directives.
	used bool
}

// collectIgnores parses every distlint:ignore directive in the package
// into dst (keyed by filename). Malformed directives (no analyzer, or
// no reason) are returned as findings so they cannot silently disable a
// check.
func collectIgnores(pkg *load.Package, dst map[string][]*ignoreDirective) []Finding {
	var bad []Finding
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				rest, ok := strings.CutPrefix(text, "distlint:ignore")
				if !ok {
					continue
				}
				fields := strings.Fields(rest)
				pos := pkg.Fset.Position(c.Pos())
				if len(fields) < 2 {
					bad = append(bad, Finding{
						Analyzer: "distlint",
						Pos:      pos,
						Message:  "malformed suppression: want //distlint:ignore <analyzer> <reason>",
					})
					continue
				}
				dst[pos.Filename] = append(dst[pos.Filename], &ignoreDirective{
					file:     pos.Filename,
					line:     pos.Line,
					analyzer: fields[0],
					reason:   strings.Join(fields[1:], " "),
					pos:      c.Pos(),
				})
			}
		}
	}
	return bad
}

// suppression returns the directive covering diag (from analyzer name):
// one naming the analyzer (or "all") on its line or the line above.
func suppression(name string, pos token.Position, ignores map[string][]*ignoreDirective) *ignoreDirective {
	for _, ig := range ignores[pos.Filename] {
		if ig.analyzer != name && ig.analyzer != "all" {
			continue
		}
		if ig.line == pos.Line || ig.line == pos.Line-1 {
			return ig
		}
	}
	return nil
}

// Runner executes analyzers over a set of packages with one shared
// analysis.Module: one summary cache for the whole invocation.
type Runner struct {
	module    *analysis.Module
	Analyzers []*analysis.Analyzer
	// Unscoped ignores the per-analyzer package scope map; the fixture
	// runner sets it because fixtures live under testdata import paths
	// no scope entry matches.
	Unscoped bool
	// Audit verifies every suppression directive in the analyzed
	// packages: it must name a known analyzer and suppress at least one
	// diagnostic, or it becomes a finding. The whole-module lint run
	// sets it; fixture runs do not (a fixture exercises one analyzer,
	// which would make every other analyzer's suppressions look stale).
	Audit bool
}

// NewRunner builds a Runner over a fresh Module. l's package cache backs
// the Module's lazy dependency resolution, so summaries can chase helpers
// into packages that were only pulled in as imports.
func NewRunner(l *load.Loader, analyzers []*analysis.Analyzer) *Runner {
	return &Runner{module: analysis.NewModule(l.Cached), Analyzers: analyzers}
}

// Run analyzes pkgs and returns the unsuppressed findings plus any
// malformed/stale-suppression findings, sorted by position.
func (r *Runner) Run(pkgs ...*load.Package) ([]Finding, error) {
	ignores := make(map[string][]*ignoreDirective)
	var findings []Finding
	for _, p := range pkgs {
		findings = append(findings, collectIgnores(p, ignores)...)
	}
	for _, p := range pkgs {
		for _, a := range r.Analyzers {
			if !r.Unscoped && !InScope(a.Name, p.Path) {
				continue
			}
			diags, err := r.module.Run(a, p)
			if err != nil {
				return nil, err
			}
			for _, d := range diags {
				pos := p.Fset.Position(d.Pos)
				if ig := suppression(a.Name, pos, ignores); ig != nil {
					ig.used = true
					continue
				}
				findings = append(findings, Finding{Analyzer: a.Name, Pos: pos, Message: d.Message})
			}
		}
	}
	if r.Audit {
		findings = append(findings, r.auditIgnores(pkgs, ignores)...)
	}
	sort.Slice(findings, func(i, j int) bool {
		if findings[i].Pos.Filename != findings[j].Pos.Filename {
			return findings[i].Pos.Filename < findings[j].Pos.Filename
		}
		if findings[i].Pos.Line != findings[j].Pos.Line {
			return findings[i].Pos.Line < findings[j].Pos.Line
		}
		return findings[i].Analyzer < findings[j].Analyzer
	})
	return findings, nil
}

// auditIgnores flags directives that name an unknown analyzer or that
// suppressed nothing during the run.
func (r *Runner) auditIgnores(pkgs []*load.Package, ignores map[string][]*ignoreDirective) []Finding {
	known := make(map[string]bool, len(r.Analyzers)+1)
	known["all"] = true
	for _, a := range r.Analyzers {
		known[a.Name] = true
	}
	var out []Finding
	var fset *token.FileSet
	if len(pkgs) > 0 {
		fset = pkgs[0].Fset
	}
	for _, igs := range ignores {
		for _, ig := range igs {
			switch {
			case !known[ig.analyzer]:
				out = append(out, Finding{
					Analyzer: "distlint",
					Pos:      fset.Position(ig.pos),
					Message:  fmt.Sprintf("suppression names unknown analyzer %q", ig.analyzer),
				})
			case !ig.used:
				out = append(out, Finding{
					Analyzer: "distlint",
					Pos:      fset.Position(ig.pos),
					Message: fmt.Sprintf("stale suppression: %s reports no diagnostic here (reason was: %s); delete the directive",
						ig.analyzer, ig.reason),
				})
			}
		}
	}
	return out
}
