// Facts: analyzer-scoped information exported for objects and packages
// of one analysis unit and importable from any later unit, mirroring
// golang.org/x/tools/go/analysis. A fact is a pointer to a struct with
// the marker method AFact; ExportObjectFact attaches one to a
// types.Object, and a downstream package's pass reads it back with
// ImportObjectFact. The driver runs packages in dependency order, so by
// the time a pass analyzes a caller, facts for every imported callee
// are present. This is what lets pooledescape know that a helper two
// packages away returns a pooled buffer, without re-analyzing it.
package analysis

import (
	"fmt"
	"go/types"
	"reflect"
)

// Fact is analyzer-private state attached to an object or package.
// Implementations must be pointers to structs; the marker method keeps
// arbitrary values out of the store, same as upstream.
type Fact interface {
	AFact()
}

// factKey identifies one stored fact: which analyzer produced it, the
// object (or package) it describes, and the concrete fact type — an
// analyzer may attach several fact types to the same object.
type factKey struct {
	analyzer *Analyzer
	key      any // types.Object or *types.Package
	typ      reflect.Type
}

// factStore holds every fact exported during a module run. It lives on
// the Module so facts survive across packages and analyzers see only
// their own (the analyzer is part of the key).
type factStore struct {
	m map[factKey]Fact
}

func newFactStore() *factStore {
	return &factStore{m: make(map[factKey]Fact)}
}

func (s *factStore) export(a *Analyzer, key any, f Fact) {
	t := reflect.TypeOf(f)
	if t.Kind() != reflect.Ptr {
		panic(fmt.Sprintf("analysis: fact %T is not a pointer", f))
	}
	s.m[factKey{a, key, t}] = f
}

// lookup copies the stored fact (if any) into f and reports whether one
// existed. Copying keeps the store immutable from the reader's side,
// matching the upstream contract.
func (s *factStore) lookup(a *Analyzer, key any, f Fact) bool {
	t := reflect.TypeOf(f)
	got, ok := s.m[factKey{a, key, t}]
	if !ok {
		return false
	}
	reflect.ValueOf(f).Elem().Set(reflect.ValueOf(got).Elem())
	return true
}

// ExportObjectFact associates fact with obj for downstream passes of
// the same analyzer. obj should belong to the package being analyzed.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if obj == nil {
		panic("analysis: ExportObjectFact(nil)")
	}
	p.Module.facts.export(p.Analyzer, obj, fact)
}

// ImportObjectFact copies the fact of this analyzer previously exported
// for obj into the fact argument, reporting whether one existed.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	if obj == nil {
		return false
	}
	return p.Module.facts.lookup(p.Analyzer, obj, fact)
}

// ExportPackageFact associates fact with the package under analysis.
func (p *Pass) ExportPackageFact(fact Fact) {
	p.Module.facts.export(p.Analyzer, p.Pkg, fact)
}

// ImportPackageFact copies the fact this analyzer exported for pkg into
// fact, reporting whether one existed.
func (p *Pass) ImportPackageFact(pkg *types.Package, fact Fact) bool {
	if pkg == nil {
		return false
	}
	return p.Module.facts.lookup(p.Analyzer, pkg, fact)
}
