package backend

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// DirStore is a Store backed by a real directory tree (the node's actual
// local file system, as in the paper's deployment where agents manipulate
// files on disk). URL paths map to files under the root; path traversal
// outside the root is rejected. Construct with NewDirStore.
type DirStore struct {
	root string
	// mu serializes mutations so Put's exists-check and write are
	// atomic with respect to other DirStore calls (not other
	// processes).
	mu sync.Mutex
}

var _ Store = (*DirStore)(nil)

// NewDirStore returns a store rooted at dir, creating it if needed.
func NewDirStore(dir string) (*DirStore, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, fmt.Errorf("backend: resolving %s: %w", dir, err)
	}
	if err := os.MkdirAll(abs, 0o755); err != nil {
		return nil, fmt.Errorf("backend: creating docroot: %w", err)
	}
	return &DirStore{root: abs}, nil
}

// stagingPrefix starts the name of the file Replace writes beside its
// target. The prefix is reserved: resolve refuses a path whose last element
// carries it, and List and UsedBytes pass such files over, so a replace in
// progress — or one a crash cut short — never shows up as stored content.
const stagingPrefix = ".replace-"

// Root returns the absolute docroot.
func (s *DirStore) Root() string { return s.root }

// resolve maps a URL path to a filesystem path inside the root.
func (s *DirStore) resolve(urlPath string) (string, error) {
	if !strings.HasPrefix(urlPath, "/") {
		return "", fmt.Errorf("backend: non-absolute path %q", urlPath)
	}
	// Reject ".." before cleaning: management paths are canonical URL
	// paths, and anything with dot-dot segments is suspect even when
	// Clean would collapse it back inside the root.
	for _, seg := range strings.Split(urlPath, "/") {
		if seg == ".." {
			return "", fmt.Errorf("backend: unsafe path %q", urlPath)
		}
	}
	clean := path.Clean(urlPath)
	if clean == "/" || strings.HasPrefix(path.Base(clean), stagingPrefix) {
		return "", fmt.Errorf("backend: unsafe path %q", urlPath)
	}
	return filepath.Join(s.root, filepath.FromSlash(clean)), nil
}

// Fetch implements Store.
func (s *DirStore) Fetch(urlPath string) ([]byte, error) {
	fsPath, err := s.resolve(urlPath)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(fsPath)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("%w: %q", ErrNotStored, urlPath)
		}
		return nil, fmt.Errorf("backend: reading %q: %w", urlPath, err)
	}
	return data, nil
}

// Has implements Store.
func (s *DirStore) Has(urlPath string) bool {
	fsPath, err := s.resolve(urlPath)
	if err != nil {
		return false
	}
	info, err := os.Stat(fsPath)
	return err == nil && info.Mode().IsRegular()
}

// Put implements Store.
func (s *DirStore) Put(urlPath string, data []byte) error {
	fsPath, err := s.resolve(urlPath)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := os.Stat(fsPath); err == nil {
		return fmt.Errorf("%w: %q", ErrAlreadyStored, urlPath)
	}
	if err := os.MkdirAll(filepath.Dir(fsPath), 0o755); err != nil {
		return fmt.Errorf("backend: creating parent of %q: %w", urlPath, err)
	}
	if err := os.WriteFile(fsPath, data, 0o644); err != nil {
		return fmt.Errorf("backend: writing %q: %w", urlPath, err)
	}
	return nil
}

// Replace implements Store: the new bytes are written beside the file and
// renamed over it, so a reader opens the old file or the new one.
func (s *DirStore) Replace(urlPath string, data []byte) error {
	fsPath, err := s.resolve(urlPath)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if info, err := os.Stat(fsPath); err != nil || !info.Mode().IsRegular() {
		return fmt.Errorf("%w: %q", ErrNotStored, urlPath)
	}
	tmp, err := os.CreateTemp(filepath.Dir(fsPath), stagingPrefix+"*")
	if err != nil {
		return fmt.Errorf("backend: staging %q: %w", urlPath, err)
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Chmod(0o644)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), fsPath)
	}
	if err != nil {
		_ = os.Remove(tmp.Name()) // best effort: the write's error is the one to report
		return fmt.Errorf("backend: replacing %q: %w", urlPath, err)
	}
	return nil
}

// Delete implements Store, pruning directories left empty.
func (s *DirStore) Delete(urlPath string) error {
	fsPath, err := s.resolve(urlPath)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := os.Remove(fsPath); err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("%w: %q", ErrNotStored, urlPath)
		}
		return fmt.Errorf("backend: removing %q: %w", urlPath, err)
	}
	// Prune now-empty parents up to (not including) the root.
	dir := filepath.Dir(fsPath)
	for dir != s.root {
		if err := os.Remove(dir); err != nil {
			break // non-empty or permission issue: stop pruning
		}
		dir = filepath.Dir(dir)
	}
	return nil
}

// List implements Store.
func (s *DirStore) List() []string {
	var out []string
	_ = filepath.WalkDir(s.root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || strings.HasPrefix(d.Name(), stagingPrefix) {
			return nil
		}
		rel, err := filepath.Rel(s.root, p)
		if err != nil {
			return nil
		}
		out = append(out, "/"+filepath.ToSlash(rel))
		return nil
	})
	sort.Strings(out)
	return out
}

// UsedBytes implements Store.
func (s *DirStore) UsedBytes() int64 {
	var total int64
	_ = filepath.WalkDir(s.root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || strings.HasPrefix(d.Name(), stagingPrefix) {
			return nil
		}
		if info, err := d.Info(); err == nil {
			total += info.Size()
		}
		return nil
	})
	return total
}
