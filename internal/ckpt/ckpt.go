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
// Artifacts live in a blob.Store, the file store under the campaign
// result cache too: one artifact per key at dir/key[:2]/key.ckpt,
// published atomically with the first writer winning, so concurrent
// writers (or crashed ones) can never publish a partial artifact, and
// bounded to a byte budget least recently used first (GC). The
// artifact is a gzip stream of binio-encoded records (format 3): a
// header, one record per window, each a delta against the window
// before — the first one's memory against the program's initial data
// image — with each cache and BTB set's LRU order stored as one-byte
// ranks, and a trailer with the run's phase totals. It is readable
// strictly in window order, so resuming never holds more than two
// windows' state in memory.
//
// The store alone decides that an artifact is unusable, and evicts it
// where it finds so: Has and WriteRaw on an older format's header,
// OpenArtifact on a header it cannot read, the Reader on a record it
// cannot decode or a checksum that fails, and ReadRaw on any container
// WriteRaw would refuse. To every caller an evicted artifact is absent,
// so it is regenerated, or replaced by a peer's upload, once.
package ckpt

import (
	"fmt"
	"io/fs"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/blob"
)

// Store is a content-addressed artifact store rooted at one directory.
// All methods are safe for concurrent use; a nil *Store is a valid
// "checkpointing off" store (lookups miss, writes are discarded).
type Store struct {
	blob *blob.Store

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
	b, err := blob.Open(dir, "ckpt")
	if err != nil {
		return nil, fmt.Errorf("ckpt: open store: %w", err)
	}
	if b == nil {
		return nil, nil
	}
	return &Store{blob: b, gen: map[string]*keyLock{}}, nil
}

// Has reports whether an artifact for key is published in the current
// format.
func (s *Store) Has(key string) bool {
	return s != nil && s.current(key)
}

// current reports whether key's artifact is published in the current
// format. One in an older format is evicted, so Has reports it absent
// (a worker holding one fetches a current copy) and WriteRaw replaces
// it, once, instead of each refusing it forever. A removal racing a
// peer's replacement costs at most one regeneration.
func (s *Store) current(key string) bool {
	f, err := os.Open(s.blob.Path(key))
	if err != nil {
		return false
	}
	ok := currentFormat(f)
	f.Close()
	if !ok {
		s.evict(key)
	}
	return ok
}

// Lock serializes in-process generation for key: the caller that gets
// the lock first generates the artifact while later callers block, then
// find it published. The returned function releases the lock. A nil
// store returns a no-op.
func (s *Store) Lock(key string) (unlock func()) {
	if s == nil || !blob.ValidKey(key) {
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

// evict removes key's artifact as unusable, counting it in Evicted if
// it was still there.
func (s *Store) evict(key string) {
	if s.blob.Remove(key) {
		s.evicted.Add(1)
	}
}

// GC bounds the store to maxBytes, evicting artifacts least recently
// opened or read first; evictions count in Metrics.Evicted. An evicted
// artifact costs its next user one regeneration, which is
// byte-identical. A nil store or non-positive bound is a no-op.
func (s *Store) GC(maxBytes int64) (evicted int, reclaimed int64, err error) {
	if s == nil {
		return 0, 0, nil
	}
	evicted, reclaimed, err = s.blob.GC(maxBytes)
	s.evicted.Add(int64(evicted))
	return evicted, reclaimed, err
}

// ReadRaw returns the raw artifact bytes for key (for shipping to a
// remote worker) and marks the artifact recently used. The container is
// checked as WriteRaw checks an upload, so only an artifact a peer
// would accept leaves the store; one that fails (corrupt, or in an
// older format) is evicted. A missing or evicted artifact returns an
// error wrapping fs.ErrNotExist.
func (s *Store) ReadRaw(key string) ([]byte, error) {
	if s == nil {
		return nil, fs.ErrNotExist
	}
	data, err := s.blob.Read(key)
	if err != nil {
		return nil, err
	}
	if err := checkContainer(data); err != nil {
		s.evict(key)
		return nil, fmt.Errorf("ckpt: artifact %.12s… evicted (%v): %w", key, err, fs.ErrNotExist)
	}
	return data, nil
}

// WriteRaw atomically installs raw artifact bytes received from a peer.
// The container is validated so a corrupt upload cannot be published;
// an artifact already present in the current format is left untouched
// (artifacts are content-addressed, so first-writer-wins is safe), and
// one in an older format is replaced.
func (s *Store) WriteRaw(key string, data []byte) error {
	if s == nil || !blob.ValidKey(key) {
		return fmt.Errorf("ckpt: invalid key %q", key)
	}
	if err := checkContainer(data); err != nil {
		return fmt.Errorf("ckpt: upload: %w", err)
	}
	s.current(key) // removes an older format's artifact, which data replaces
	published, err := s.blob.Write(key, data)
	if published {
		s.bytesWritten.Add(int64(len(data)))
	}
	return err
}

// Metrics is a snapshot of the store's counters.
type Metrics struct {
	// Hits and Misses count artifact open attempts (a generate-after-miss
	// counts once as a miss).
	Hits, Misses int64
	// Generated counts artifacts this process produced and published.
	Generated int64
	// Evicted counts artifacts removed: by GC, and as unusable (corrupt,
	// or in an older format) by whichever method found them so.
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

// DiskStat returns the published artifact count and total bytes (both
// 0 for nil).
func (s *Store) DiskStat() (artifacts, bytes int64) {
	if s == nil {
		return 0, 0
	}
	return s.blob.DiskStat()
}
