// Cross-package fixture for cowdiscipline: shared.Entry's distlint:cow
// marker is a doc comment in the helper package, read from that
// package's syntax when this one is analyzed.
package fixture

import "webcluster/internal/lint/cowdiscipline/testdata/shared"

// --- flagged ---

func badBump(e *shared.Entry) {
	e.Hits++ // want `assignment through copy-on-write value "e"`
}

func badTruncate(e *shared.Entry) {
	e.Body = nil // want `assignment through copy-on-write value "e"`
}

// --- allowed ---

// cloneEntry is a sanctioned mutation site: clone helpers operate on
// fresh copies by contract.
func cloneEntry(e *shared.Entry) *shared.Entry {
	c := *e
	c.Hits = 0
	return &c
}

func readOnly(e *shared.Entry) int {
	return e.Hits + len(e.Body)
}
