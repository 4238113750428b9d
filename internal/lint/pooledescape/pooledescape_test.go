package pooledescape_test

import (
	"testing"

	"webcluster/internal/lint/linttest"
	"webcluster/internal/lint/pooledescape"
)

func TestPooledEscape(t *testing.T) {
	linttest.Run(t, "testdata/a", pooledescape.Analyzer)
}

// TestPooledEscapeCrossPackage runs the helper and caller fixtures in
// one interprocedural pass: the caller's obligations exist only because
// the helper package's summaries say Lease returns a pooled value and
// Recycle releases its parameter.
func TestPooledEscapeCrossPackage(t *testing.T) {
	linttest.RunDirs(t, pooledescape.Analyzer, "testdata/pool", "testdata/b")
}
