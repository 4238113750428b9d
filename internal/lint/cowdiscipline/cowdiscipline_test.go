package cowdiscipline_test

import (
	"testing"

	"webcluster/internal/lint/cowdiscipline"
	"webcluster/internal/lint/linttest"
)

func TestCOWDiscipline(t *testing.T) {
	linttest.Run(t, "testdata/a", cowdiscipline.Analyzer)
}

// TestCOWDisciplineCrossPackage: the distlint:cow doc marker declared in
// testdata/shared is enforced in a downstream package.
func TestCOWDisciplineCrossPackage(t *testing.T) {
	linttest.RunDirs(t, cowdiscipline.Analyzer, "testdata/shared", "testdata/e")
}
