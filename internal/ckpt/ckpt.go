// Package ckpt is the content-addressed checkpoint artifact store: the
// campaign-level cache of warm simulation state that amortizes
// functional warming across a sweep grid. A sweep varies IQ/power
// configuration over the same benchmark stream, so the expensive ~95%
// of a sampled job — fast-forward plus functional warming — is
// identical for every cell that shares a warming identity. The first
// job to run generates an artifact (write-through from internal/sample)
// holding, for each sampling window, the architectural checkpoint
// (emu.Checkpoint) plus the warm cache-hierarchy and branch-predictor
// state at the window start; every other cell resumes its detailed
// windows directly from the artifact and never touches the functional
// stream.
//
// Keys are computed by the campaign layer (campaign.CheckpointKey):
// SHA-256 over the benchmark identity, seed, budget, the
// warming-relevant config slice (cache geometry + predictor
// configuration + instrumentation class — IQ and power axes excluded),
// and the sampling regime. The store itself treats keys as opaque.
//
// Disk layout mirrors the campaign result cache: one artifact per key
// at dir/key[:2]/key.ckpt, written to a temp file and renamed, so
// concurrent writers (or crashed ones) can never publish a partial
// artifact. The artifact is a gzip stream of binio-encoded records: a
// header, one record per window, each a delta against the window before,
// and a trailer with the run's phase totals — readable strictly in
// window order, so resuming never holds more than two windows' state in
// memory.
package ckpt

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
)

// Store is a content-addressed artifact store rooted at one directory.
// All methods are safe for concurrent use; a nil *Store is a valid
// "checkpointing off" store (lookups miss, writes are discarded).
type Store struct {
	dir string

	// genMu serializes artifact generation per key within this process:
	// the first job of a sweep generates, concurrent cells of the same
	// grid block briefly and then resume from the published artifact.
	genMu sync.Mutex
	gen   map[string]*keyLock

	hits, misses, generated, evicted atomic.Int64
	bytesRead, bytesWritten          atomic.Int64
}

type keyLock struct {
	mu   sync.Mutex
	refs int
}

// Open returns a store rooted at dir, creating it if needed. An empty
// dir returns (nil, nil): checkpointing off.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ckpt: open store: %w", err)
	}
	return &Store{dir: dir, gen: map[string]*keyLock{}}, nil
}

// Dir returns the store's root directory ("" for a nil store).
func (s *Store) Dir() string {
	if s == nil {
		return ""
	}
	return s.dir
}

// validKey keeps key material safe to splice into paths: content hashes
// are lowercase hex, and anything else (a traversal attempt arriving
// over HTTP, say) is rejected before it reaches the filesystem.
func validKey(key string) bool {
	if len(key) < 8 || len(key) > 128 {
		return false
	}
	for _, c := range key {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// path returns the artifact path for key, or "" for an invalid key.
func (s *Store) path(key string) string {
	if s == nil || !validKey(key) {
		return ""
	}
	return filepath.Join(s.dir, key[:2], key+".ckpt")
}

// Has reports whether an artifact for key is published.
func (s *Store) Has(key string) bool {
	p := s.path(key)
	if p == "" {
		return false
	}
	_, err := os.Stat(p)
	return err == nil
}

// Lock serializes in-process generation for key: the caller that gets
// the lock first generates the artifact while later callers block, then
// find it published. The returned function releases the lock. A nil
// store returns a no-op.
func (s *Store) Lock(key string) (unlock func()) {
	if s == nil || !validKey(key) {
		return func() {}
	}
	s.genMu.Lock()
	l := s.gen[key]
	if l == nil {
		l = &keyLock{}
		s.gen[key] = l
	}
	l.refs++
	s.genMu.Unlock()
	l.mu.Lock()
	return func() {
		l.mu.Unlock()
		s.genMu.Lock()
		l.refs--
		if l.refs == 0 {
			delete(s.gen, key)
		}
		s.genMu.Unlock()
	}
}

// Remove evicts the artifact for key, reporting whether one existed.
func (s *Store) Remove(key string) bool {
	p := s.path(key)
	if p == "" {
		return false
	}
	if err := os.Remove(p); err != nil {
		return false
	}
	s.evicted.Add(1)
	return true
}

// ReadRaw returns the raw artifact bytes for key (for shipping to a
// remote worker); a missing artifact returns fs.ErrNotExist.
func (s *Store) ReadRaw(key string) ([]byte, error) {
	p := s.path(key)
	if p == "" {
		return nil, fs.ErrNotExist
	}
	b, err := os.ReadFile(p)
	if err != nil {
		return nil, err
	}
	return b, nil
}

// WriteRaw atomically installs raw artifact bytes received from a peer.
// The container header is validated so a corrupt upload cannot be
// published; an already-present artifact is left untouched (artifacts
// are content-addressed, so first-writer-wins is safe).
func (s *Store) WriteRaw(key string, data []byte) error {
	p := s.path(key)
	if p == "" {
		return fmt.Errorf("ckpt: invalid key %q", key)
	}
	if err := checkContainer(data); err != nil {
		return err
	}
	if s.Has(key) {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(s.dir, "put-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	s.bytesWritten.Add(int64(len(data)))
	return nil
}

// Metrics is a snapshot of the store's counters.
type Metrics struct {
	// Hits and Misses count artifact open attempts (a generate-after-miss
	// counts once as a miss).
	Hits, Misses int64
	// Generated counts artifacts this process produced and published.
	Generated int64
	// Evicted counts artifacts removed by GC.
	Evicted int64
	// BytesRead and BytesWritten count artifact I/O through this store.
	BytesRead, BytesWritten int64
}

// Metrics returns a snapshot of the store's counters (zero for nil).
func (s *Store) Metrics() Metrics {
	if s == nil {
		return Metrics{}
	}
	return Metrics{
		Hits:         s.hits.Load(),
		Misses:       s.misses.Load(),
		Generated:    s.generated.Load(),
		Evicted:      s.evicted.Load(),
		BytesRead:    s.bytesRead.Load(),
		BytesWritten: s.bytesWritten.Load(),
	}
}

// DiskStat walks the store and returns the published artifact count and
// total bytes (both 0 for nil).
func (s *Store) DiskStat() (artifacts, bytes int64) {
	if s == nil {
		return 0, 0
	}
	filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".ckpt") {
			return nil
		}
		if info, err := d.Info(); err == nil {
			artifacts++
			bytes += info.Size()
		}
		return nil
	})
	return artifacts, bytes
}

// discard abandons a temp file (used by the artifact writer).
func discard(f *os.File) {
	name := f.Name()
	f.Close()
	os.Remove(name)
}
