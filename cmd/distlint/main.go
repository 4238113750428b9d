// Command distlint runs the repo's analyzer suite (see internal/lint)
// over the module: pooledescape, cowdiscipline, deadlinecheck, faulthook
// and lockscope — the checks that machine-enforce data-path invariants no
// test would notice breaking. Each kept its place in a mutation audit
// (DESIGN.md §15, `make lint-audit`).
//
// Usage:
//
//	distlint [-v] [-json] [packages...]
//
// With no arguments every package in the module is checked (testdata
// and the lint framework itself excluded). Package arguments are import
// paths relative to the module root, e.g. internal/distributor.
// Exits non-zero when any finding is reported.
//
// All packages of one invocation share a single analysis module, so
// the analyzers' call summaries reach across packages, and every
// //distlint:ignore directive is audited: one that names an unknown
// analyzer or no longer suppresses anything is itself a finding.
//
// -json emits the findings as a JSON array on stdout (one object per
// finding: analyzer, file, line, col, message) for tooling; the
// default text format file:line:col: analyzer: message is what the CI
// problem matcher (.github/problem-matcher-distlint.json) parses to
// annotate PR diffs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"webcluster/internal/lint/distlint"
	"webcluster/internal/lint/load"
)

// jsonFinding is the -json wire form of one finding.
type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

func main() {
	verbose := flag.Bool("v", false, "print every package as it is checked")
	list := flag.Bool("list", false, "list the analyzers and their docs, then exit")
	asJSON := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: distlint [-v] [-json] [packages...]\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	suite := distlint.Suite()
	if *list {
		for _, a := range suite {
			fmt.Printf("%-15s %s\n", a.Name, a.Doc)
		}
		return
	}

	wd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	root, modPath, err := load.FindModule(wd)
	if err != nil {
		fatal(err)
	}
	loader := load.NewLoader(root, modPath)

	rels := flag.Args()
	if len(rels) == 0 {
		rels, err = modulePackages(root)
		if err != nil {
			fatal(err)
		}
	}

	var pkgs []*load.Package
	for _, rel := range rels {
		rel = strings.TrimPrefix(rel, "./")
		importPath := modPath + "/" + filepath.ToSlash(rel)
		if *verbose {
			fmt.Fprintf(os.Stderr, "distlint: loading %s\n", importPath)
		}
		pkg, err := loader.LoadDir(filepath.Join(root, rel), importPath)
		if err != nil {
			fatal(err)
		}
		pkgs = append(pkgs, pkg)
	}

	runner := distlint.NewRunner(loader, suite)
	runner.Audit = true
	findings, err := runner.Run(pkgs...)
	if err != nil {
		fatal(err)
	}
	// Report paths relative to the module root so output is stable
	// across checkouts (and matchable by the CI problem matcher).
	for i := range findings {
		if r, err := filepath.Rel(root, findings[i].Pos.Filename); err == nil {
			findings[i].Pos.Filename = r
		}
	}

	if *asJSON {
		out := make([]jsonFinding, 0, len(findings))
		for _, f := range findings {
			out = append(out, jsonFinding{
				Analyzer: f.Analyzer,
				File:     filepath.ToSlash(f.Pos.Filename),
				Line:     f.Pos.Line,
				Col:      f.Pos.Column,
				Message:  f.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "distlint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// modulePackages walks the module for directories containing Go files,
// skipping testdata, hidden directories, and the lint framework's own
// fixtures (internal/lint is excluded by scope anyway, but skipping it
// here avoids type-checking fixture packages that deliberately break
// invariants).
func modulePackages(root string) ([]string, error) {
	var pkgs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if name == "testdata" || strings.HasPrefix(name, ".") && path != root {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if strings.HasPrefix(filepath.ToSlash(rel), "internal/lint/") {
			return filepath.SkipDir
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
				pkgs = append(pkgs, filepath.ToSlash(rel))
				break
			}
		}
		return nil
	})
	sort.Strings(pkgs)
	return pkgs, err
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "distlint: %v\n", err)
	os.Exit(1)
}
