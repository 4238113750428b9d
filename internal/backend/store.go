// Package backend implements a back-end web-server node: a content store
// (the node's local file system), an LRU memory page cache, simulated
// CGI/ASP dynamic handlers, and an HTTP server speaking the keep-alive
// subset in internal/httpx. A node serves only the slice of the document
// tree placed on it; requests for anything else return 404, which is
// exactly what makes content-blind routing break under partitioning.
package backend

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Errors returned by stores.
var (
	// ErrNotStored reports a path absent from the store.
	ErrNotStored = errors.New("backend: object not stored")
	// ErrAlreadyStored reports a duplicate Put.
	ErrAlreadyStored = errors.New("backend: object already stored")
)

// Store is a node's local content repository. Implementations must be safe
// for concurrent use.
//
// Stored bytes are immutable. Put and Replace take ownership of data: a
// store may keep the slice itself, so the caller must never write to it
// again (reading it, or handing it to another store, stays safe). Fetch may
// return the stored slice; its caller must not write to it either.
type Store interface {
	// Fetch returns the full object bytes.
	Fetch(path string) ([]byte, error)
	// Has reports whether path is stored without fetching it.
	Has(path string) bool
	// Put stores data at path, failing with ErrAlreadyStored if already
	// present. Ownership of data passes to the store.
	Put(path string, data []byte) error
	// Replace swaps the bytes of a stored path for data, failing with
	// ErrNotStored if absent. A concurrent Fetch returns the old bytes or
	// the new, never ErrNotStored. Ownership of data passes to the store.
	Replace(path string, data []byte) error
	// Delete removes path.
	Delete(path string) error
	// List returns all stored paths, sorted.
	List() []string
	// UsedBytes returns the summed stored size.
	UsedBytes() int64
}

// MemStore is an in-memory Store (models the node's local disk contents).
// The zero value is ready to use.
type MemStore struct {
	mu   sync.RWMutex
	data map[string][]byte
	used int64
}

var _ Store = (*MemStore)(nil)

// Fetch implements Store.
func (s *MemStore) Fetch(path string) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	data, ok := s.data[path]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotStored, path)
	}
	return data, nil
}

// Has implements Store.
func (s *MemStore) Has(path string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.data[path]
	return ok
}

// Put implements Store, keeping data itself.
func (s *MemStore) Put(path string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.data == nil {
		s.data = make(map[string][]byte)
	}
	if _, ok := s.data[path]; ok {
		return fmt.Errorf("%w: %q", ErrAlreadyStored, path)
	}
	s.data[path] = data
	s.used += int64(len(data))
	return nil
}

// Replace implements Store, keeping data itself.
func (s *MemStore) Replace(path string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	old, ok := s.data[path]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotStored, path)
	}
	s.data[path] = data
	s.used += int64(len(data) - len(old))
	return nil
}

// Delete implements Store.
func (s *MemStore) Delete(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.data[path]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotStored, path)
	}
	s.used -= int64(len(data))
	delete(s.data, path)
	return nil
}

// List implements Store.
func (s *MemStore) List() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.data))
	for p := range s.data {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// UsedBytes implements Store.
func (s *MemStore) UsedBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.used
}

// SyntheticStore is a Store whose object bytes are generated
// deterministically from the path on every Fetch, so a node can "hold"
// gigabytes of placed content (video files, large sites) without resident
// memory. It records only the placement set and per-object sizes — exactly
// what the placement experiments need.
type SyntheticStore struct {
	mu    sync.RWMutex
	sizes map[string]int64
	used  int64
}

var _ Store = (*SyntheticStore)(nil)

// PlaceSized registers path with a synthetic size (Put with explicit
// length and no data transfer).
func (s *SyntheticStore) PlaceSized(path string, size int64) error {
	if size < 0 {
		return fmt.Errorf("backend: negative size %d for %q", size, path)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sizes == nil {
		s.sizes = make(map[string]int64)
	}
	if _, ok := s.sizes[path]; ok {
		return fmt.Errorf("%w: %q", ErrAlreadyStored, path)
	}
	s.sizes[path] = size
	s.used += size
	return nil
}

// Fetch implements Store, synthesizing size bytes derived from the path.
func (s *SyntheticStore) Fetch(path string) ([]byte, error) {
	s.mu.RLock()
	size, ok := s.sizes[path]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotStored, path)
	}
	return SynthesizeBody(path, size), nil
}

// SynthesizeBody produces the deterministic body for path at the given
// size: the path repeated, so responses are verifiable end to end.
func SynthesizeBody(path string, size int64) []byte {
	if size == 0 {
		return []byte{}
	}
	pattern := []byte(path + "\n")
	body := make([]byte, size)
	for off := 0; off < len(body); off += len(pattern) {
		copy(body[off:], pattern)
	}
	return body
}

// Has implements Store.
func (s *SyntheticStore) Has(path string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.sizes[path]
	return ok
}

// Put implements Store by registering the path with the data's length.
func (s *SyntheticStore) Put(path string, data []byte) error {
	return s.PlaceSized(path, int64(len(data)))
}

// Replace implements Store by re-registering the path with the data's
// length.
func (s *SyntheticStore) Replace(path string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	old, ok := s.sizes[path]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotStored, path)
	}
	size := int64(len(data))
	s.sizes[path] = size
	s.used += size - old
	return nil
}

// Delete implements Store.
func (s *SyntheticStore) Delete(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	size, ok := s.sizes[path]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotStored, path)
	}
	s.used -= size
	delete(s.sizes, path)
	return nil
}

// List implements Store.
func (s *SyntheticStore) List() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.sizes))
	for p := range s.sizes {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// UsedBytes implements Store.
func (s *SyntheticStore) UsedBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.used
}
