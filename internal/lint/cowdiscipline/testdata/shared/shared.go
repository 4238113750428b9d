// Package shared is the helper side of the cowdiscipline cross-package
// fixture: Entry's distlint:cow marker lives in this package's doc
// comments, which only this package's syntax contains. The analyzer
// reads the markers of every imported module package from its syntax,
// so a write through an Entry in another package is flagged.
package shared

// Entry is a published copy-on-write snapshot: readers traverse it
// lock-free, mutators clone and republish.
//
// distlint:cow
type Entry struct {
	Hits int
	Body []byte
}
