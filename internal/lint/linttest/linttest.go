// Package linttest runs one analyzer over a fixture directory and
// checks its diagnostics against want comments, mirroring the
// golang.org/x/tools/go/analysis/analysistest contract:
//
//	badCall() // want `exact diagnostic regexp`
//
// Each diagnostic must match a want comment on its line, and each want
// comment must be matched by a diagnostic; any mismatch fails the test.
// Fixtures live under the analyzer package's testdata/ directory (one
// sub-directory per fixture package) and may import webcluster/...
// packages, which resolve against the enclosing module.
//
// Fixture packages load under their real module import path
// (webcluster/internal/lint/<analyzer>/testdata/src/<pkg>), so fixtures
// can import each other: RunDirs analyzes several fixture packages in
// one interprocedural run, with want comments honored in every one —
// that is how the cross-package fixtures demonstrate violations the
// old per-package engine could not see. go build/test never descend
// into testdata, so deliberately broken fixtures cannot affect tier-1.
package linttest

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"webcluster/internal/lint/analysis"
	"webcluster/internal/lint/distlint"
	"webcluster/internal/lint/load"
)

var (
	loaderOnce sync.Once
	loader     *load.Loader
	loaderErr  error
)

// sharedLoader returns a process-wide loader rooted at the enclosing
// module, so every fixture in a test binary shares one type-checked
// standard library.
func sharedLoader() (*load.Loader, error) {
	loaderOnce.Do(func() {
		wd, err := os.Getwd()
		if err != nil {
			loaderErr = err
			return
		}
		loader, loaderErr = load.NewLoaderAt(wd)
	})
	return loader, loaderErr
}

// want is one expectation parsed from a fixture comment.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

var wantRE = regexp.MustCompile("//\\s*want\\s+(.*)$")

// Run loads the fixture package in dir (relative to the test's working
// directory), applies a to it, and reports every divergence between the
// diagnostics and the fixture's want comments via t.Errorf.
func Run(t *testing.T, dir string, a *analysis.Analyzer) {
	t.Helper()
	RunDirs(t, a, dir)
}

// RunDirs loads one fixture package per directory (dependency packages
// first) and applies a to all of them in a single interprocedural run:
// one module, shared summaries. Want comments are honored in every
// package, so a cross-package fixture can pin both the helper-side and
// caller-side diagnostics.
func RunDirs(t *testing.T, a *analysis.Analyzer, dirs ...string) {
	t.Helper()
	l, err := sharedLoader()
	if err != nil {
		t.Fatalf("linttest: creating loader: %v", err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatalf("linttest: %v", err)
	}
	root, modPath, err := load.FindModule(wd)
	if err != nil {
		t.Fatalf("linttest: %v", err)
	}
	var pkgs []*load.Package
	var wants []*want
	for _, dir := range dirs {
		abs, err := filepath.Abs(dir)
		if err != nil {
			t.Fatalf("linttest: %v", err)
		}
		rel, err := filepath.Rel(root, abs)
		if err != nil || strings.HasPrefix(rel, "..") {
			t.Fatalf("linttest: fixture %s is outside module root %s", dir, root)
		}
		pkg, err := l.LoadDir(abs, modPath+"/"+filepath.ToSlash(rel))
		if err != nil {
			t.Fatalf("linttest: loading fixture %s: %v", dir, err)
		}
		ws, err := collectWants(pkg)
		if err != nil {
			t.Fatalf("linttest: %v", err)
		}
		wants = append(wants, ws...)
		pkgs = append(pkgs, pkg)
	}
	r := distlint.NewRunner(l, []*analysis.Analyzer{a})
	r.Unscoped = true
	findings, err := r.Run(pkgs...)
	if err != nil {
		t.Fatalf("linttest: running %s: %v", a.Name, err)
	}
	for _, f := range findings {
		if !claim(wants, f) {
			t.Errorf("%s: unexpected diagnostic: %s", posString(f), f.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matching %q", filepath.Base(w.file), w.line, w.raw)
		}
	}
}

// claim marks the first unmatched want on the finding's line whose
// regexp matches the message, returning false when none does.
func claim(wants []*want, f distlint.Finding) bool {
	for _, w := range wants {
		if w.matched || w.file != f.Pos.Filename || w.line != f.Pos.Line {
			continue
		}
		if w.re.MatchString(f.Message) {
			w.matched = true
			return true
		}
	}
	return false
}

func posString(f distlint.Finding) string {
	return fmt.Sprintf("%s:%d", filepath.Base(f.Pos.Filename), f.Pos.Line)
}

// collectWants parses every `// want "re" ...` comment in the package.
// Expectations use double-quoted Go strings or backquoted raw strings.
func collectWants(pkg *load.Package) ([]*want, error) {
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				patterns, err := splitPatterns(m[1])
				if err != nil {
					return nil, fmt.Errorf("%s:%d: %v", pos.Filename, pos.Line, err)
				}
				for _, p := range patterns {
					re, err := regexp.Compile(p)
					if err != nil {
						return nil, fmt.Errorf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, p, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re, raw: p})
				}
			}
		}
	}
	return wants, nil
}

// splitPatterns tokenizes the payload of a want comment into its quoted
// regexp strings.
func splitPatterns(s string) ([]string, error) {
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		switch s[0] {
		case '"':
			end := 1
			for end < len(s) {
				if s[end] == '\\' {
					end += 2
					continue
				}
				if s[end] == '"' {
					break
				}
				end++
			}
			if end >= len(s) {
				return nil, fmt.Errorf("unterminated want pattern %q", s)
			}
			p, err := strconv.Unquote(s[:end+1])
			if err != nil {
				return nil, fmt.Errorf("bad want pattern %q: %v", s[:end+1], err)
			}
			out = append(out, p)
			s = strings.TrimSpace(s[end+1:])
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				return nil, fmt.Errorf("unterminated want pattern %q", s)
			}
			out = append(out, s[1:end+1])
			s = strings.TrimSpace(s[end+2:])
		default:
			return nil, fmt.Errorf("want patterns must be quoted, got %q", s)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty want comment")
	}
	return out, nil
}
