// Package analysis is a minimal, dependency-free re-creation of the
// golang.org/x/tools/go/analysis API surface that distlint's analyzers
// are written against. The container this repo builds in has no module
// proxy access, so the real x/tools packages cannot be vendored; this
// package mirrors the shape of the upstream API (Analyzer, Pass,
// Diagnostic, Reportf) closely enough that the analyzers port to the
// upstream framework by changing one import line.
//
// It is interprocedural: a Module holds the function declarations and
// per-function effect summaries of every package of one lint run, and
// every pass carries the Module (module.go, summary.go). Facts, analyzer
// dependencies and SSA are not implemented — a summary is computed on
// demand from the callee's syntax, wherever it lives in the module.
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
	// exists; shown by `distlint -list`.
	Doc string
	// Run performs the check on one package and reports findings via
	// pass.Reportf.
	Run func(*Pass) error
}

// Diagnostic is one finding: a position in the analyzed package and a
// human-readable message.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Pass carries one type-checked package through an analyzer run.
type Pass struct {
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Module is the shared interprocedural state of the run: the
	// module's declarations and their summaries. Always non-nil.
	Module *Module

	diagnostics []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diagnostics = append(p.diagnostics, Diagnostic{
		Pos:     pos,
		Message: fmt.Sprintf(format, args...),
	})
}

// Run executes a on pkg within the module: the package's declarations
// are indexed (idempotent), the pass sees the module's summaries, and the
// diagnostics are returned.
func (m *Module) Run(a *Analyzer, pkg *load.Package) ([]Diagnostic, error) {
	m.add(pkg)
	pass := &Pass{
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.Info,
		Module:    m,
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %w", a.Name, err)
	}
	return pass.diagnostics, nil
}
