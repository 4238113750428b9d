package urltable

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"webcluster/internal/config"
	"webcluster/internal/content"
)

// Persistence: the URL table is the distributor's authoritative routing
// state, and it has one serialized form. The -table checkpoint, the
// snapshot a primary replicates to its backup (§2.3) and the "placement"
// section of a flight bundle are all the bytes MarshalJSON writes, and
// Load reads any of them back.

// persistRecord is the stable serialized form of one entry.
type persistRecord struct {
	Path      string          `json:"path"`
	Size      int64           `json:"size"`
	Class     string          `json:"class"`
	Priority  int             `json:"priority,omitempty"`
	Pinned    bool            `json:"pinned,omitempty"`
	Hits      int64           `json:"hits,omitempty"`
	Locations []config.NodeID `json:"locations"`
}

// classFromName inverts content.Class.String().
func classFromName(name string) (content.Class, error) {
	for _, c := range content.Classes() {
		if c.String() == name {
			return c, nil
		}
	}
	return 0, fmt.Errorf("urltable: unknown content class %q", name)
}

// MarshalJSON encodes the table as a deterministic JSON array, entries
// sorted by path, so a *Table embedded in any JSON document is written in
// the one form Load reads.
func (t *Table) MarshalJSON() ([]byte, error) {
	records := []persistRecord{}
	t.Walk(func(r Record) {
		records = append(records, persistRecord{
			Path:      r.Path,
			Size:      r.Size,
			Class:     r.Class.String(),
			Priority:  r.Priority,
			Pinned:    r.Pinned,
			Hits:      r.Hits,
			Locations: r.Locations,
		})
	})
	sort.Slice(records, func(i, j int) bool { return records[i].Path < records[j].Path })
	data, err := json.Marshal(records)
	if err != nil {
		return nil, fmt.Errorf("urltable: encoding: %w", err)
	}
	return data, nil
}

// Load reads a table MarshalJSON wrote, restoring entries, pins and hit
// counters. Anything after the encoded table is an error, so a damaged
// copy is refused rather than half-read.
func Load(r io.Reader, opts Options) (*Table, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("urltable: reading: %w", err)
	}
	var records []persistRecord
	if err := json.Unmarshal(data, &records); err != nil {
		return nil, fmt.Errorf("urltable: decoding: %w", err)
	}
	t := New(opts)
	for _, pr := range records {
		class, err := classFromName(pr.Class)
		if err != nil {
			return nil, err
		}
		obj := content.Object{
			Path:     pr.Path,
			Size:     pr.Size,
			Class:    class,
			Priority: pr.Priority,
		}
		if err := t.Insert(obj, pr.Locations...); err != nil {
			return nil, fmt.Errorf("urltable: restoring %s: %w", pr.Path, err)
		}
		if pr.Pinned {
			if err := t.SetPinned(pr.Path, true); err != nil {
				return nil, err
			}
		}
		if pr.Hits > 0 {
			t.restoreHits(pr.Path, pr.Hits)
		}
	}
	return t, nil
}

// restoreHits sets a restored entry's hit counter. Counters are shared
// across entry copies, so storing through the current snapshot is enough.
func (t *Table) restoreHits(path string, hits int64) {
	segs, err := splitPath(path)
	if err != nil {
		return
	}
	if e := findSegs(t.root.Load(), segs); e != nil {
		e.hits.Store(hits)
	}
}

// SaveFile checkpoints the table to a file without ever leaving it
// partly written: the table goes to a synced temporary file in the same
// directory, which is then renamed over path. A crash mid-save leaves the
// previous checkpoint, and a reader that opened it reads it whole.
func (t *Table) SaveFile(path string) error {
	data, err := t.MarshalJSON()
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("urltable: staging %s: %w", path, err)
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Chmod(0o644)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		_ = os.Remove(tmp.Name()) // best effort: the write's error is the one to report
		return fmt.Errorf("urltable: checkpointing %s: %w", path, err)
	}
	return nil
}

// LoadFile restores a table from a file written by SaveFile.
func LoadFile(path string, opts Options) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("urltable: opening %s: %w", path, err)
	}
	defer func() { _ = f.Close() }()
	return Load(f, opts)
}
