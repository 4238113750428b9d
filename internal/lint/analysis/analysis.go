// Package analysis is a minimal, dependency-free re-creation of the
// golang.org/x/tools/go/analysis API surface that distlint's analyzers
// are written against. The container this repo builds in has no module
// proxy access, so the real x/tools packages cannot be vendored; this
// package mirrors the shape of the upstream API (Analyzer, Pass,
// Diagnostic, Reportf, Fact) closely enough that the analyzers port to
// the upstream framework by changing one import line.
//
// Since distlint v2 the package is interprocedural: a Module holds a
// call graph and per-function summaries over every package of one lint
// run, passes carry the Module, and analyzers can export Facts on
// objects and packages that downstream passes import (see facts.go,
// callgraph.go, summary.go). Analyzer dependencies and SSA remain
// unimplemented.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"webcluster/internal/lint/load"
)

// Analyzer describes one static check: a name (the suppression key), a
// doc string explaining the invariant it enforces, and the Run function.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //distlint:ignore comments. Lower-case, no spaces.
	Name string
	// Doc is the invariant the analyzer machine-enforces and why it
	// exists; shown by `distlint -help`.
	Doc string
	// Run performs the check on one package and reports findings via
	// pass.Reportf.
	Run func(*Pass) error
	// FactTypes lists the fact types this analyzer exports/imports, as
	// zero values. Declaring them is what makes the driver run the
	// analyzer over every package in dependency order (facts must exist
	// for a package's imports before the package itself is analyzed).
	FactTypes []Fact
}

// Diagnostic is one finding: a position in the analyzed package and a
// human-readable message.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Pass carries one type-checked package through an analyzer run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Module is the shared interprocedural state of the run: call graph,
	// summaries, facts. Always non-nil; single-package runs get a module
	// containing just that package.
	Module *Module
	// Unit is the loaded package under analysis (syntax + types + dir).
	Unit *load.Package

	diagnostics []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diagnostics = append(p.diagnostics, Diagnostic{
		Pos:     pos,
		Message: fmt.Sprintf(format, args...),
	})
}

// Run executes a on pkg within the module: the package is added to the
// call graph (idempotent), the pass sees the module's accumulated facts
// and summaries, and the diagnostics are returned.
func (m *Module) Run(a *Analyzer, pkg *load.Package) ([]Diagnostic, error) {
	m.Add(pkg)
	pass := &Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.Info,
		Module:    m,
		Unit:      pkg,
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %w", a.Name, err)
	}
	return pass.diagnostics, nil
}
