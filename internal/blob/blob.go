// Package blob is the content-addressed file store under the campaign
// result cache (internal/campaign) and the checkpoint artifact store
// (internal/ckpt). Both keep one file per content hash; this package
// owns everything about those files — key checks, the sharded layout,
// atomic first-writer-wins publishing, recency tracking and the LRU
// byte bound — so the two stores are codecs over it and share one set
// of guarantees.
//
// Layout: the blob for key lives at <dir>/<key[:2]>/<key>.<ext>. A
// writer fills a temp file named .<key>.tmp* in the same shard
// directory and renames it into place, so readers never observe a torn
// blob. Keys are content hashes, so two writers of one key hold the
// same bytes: the first to publish wins and a later one is dropped.
// Every read refreshes the blob's mtime, which makes mtime order
// recency order for GC.
package blob

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Store is a content-addressed blob directory. All methods are safe
// for concurrent use, across processes too. A nil *Store is a store
// that is off: lookups miss and nothing is on disk.
type Store struct {
	dir string
	ext string // with its leading dot
}

// Open returns a store rooted at dir whose blobs carry the extension
// ext, creating dir if needed. An empty dir returns (nil, nil).
func Open(dir, ext string) (*Store, error) {
	if dir == "" {
		return nil, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("blob: open %s: %w", dir, err)
	}
	return &Store{dir: dir, ext: "." + ext}, nil
}

// ValidKey reports whether key is safe to splice into a path: content
// hashes are lowercase hex, and anything else (a traversal attempt
// arriving over HTTP, say) is rejected before it reaches the
// filesystem.
func ValidKey(key string) bool {
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

// Path returns the file that holds key's blob, or "" for an invalid key
// or a nil store. "" names no file, so every file operation on it fails
// as not found: that is how an invalid key misses.
func (s *Store) Path(key string) string {
	if s == nil || !ValidKey(key) {
		return ""
	}
	return filepath.Join(s.dir, key[:2], key+s.ext)
}

// Has reports whether key's blob is published.
func (s *Store) Has(key string) bool {
	_, err := os.Stat(s.Path(key))
	return err == nil
}

// Open opens key's blob for reading and marks it recently used. A
// missing blob, an invalid key and a nil store all return an error
// wrapping fs.ErrNotExist.
func (s *Store) Open(key string) (*os.File, error) {
	f, err := os.Open(s.Path(key))
	if err == nil {
		touch(f.Name())
	}
	return f, err
}

// Read returns key's blob and marks it recently used; errors as Open.
func (s *Store) Read(key string) ([]byte, error) {
	data, err := os.ReadFile(s.Path(key))
	if err == nil {
		touch(s.Path(key))
	}
	return data, err
}

// touch refreshes a blob's mtime so GC evicts least recently used
// first, not least recently written. Best-effort: a racing eviction
// only means the blob is gone.
func touch(p string) {
	now := time.Now()
	_ = os.Chtimes(p, now, now)
}

// Temp creates the temp file a writer fills before Publish moves it
// into place as key's blob. The caller owns it until it passes it to
// Publish or Discard.
func (s *Store) Temp(key string) (*os.File, error) {
	p := s.Path(key)
	if p == "" {
		return nil, fmt.Errorf("blob: invalid key %q", key)
	}
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return nil, err
	}
	return os.CreateTemp(filepath.Dir(p), "."+key+".tmp*")
}

// Publish closes tmp, a file from Temp(key), and renames it into place
// as key's blob — unless the blob already exists, in which case the
// first writer wins and tmp is deleted. published reports whether tmp
// became the blob. Two writers racing past the existence check both
// rename; they hold the same content-addressed bytes, so either result
// is the blob.
func (s *Store) Publish(key string, tmp *os.File) (published bool, err error) {
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return false, err
	}
	if s.Has(key) {
		os.Remove(tmp.Name())
		return false, nil
	}
	if err := os.Rename(tmp.Name(), s.Path(key)); err != nil {
		os.Remove(tmp.Name())
		return false, err
	}
	return true, nil
}

// Discard abandons a temp file from Temp: the store is left as if the
// write never started.
func Discard(tmp *os.File) {
	tmp.Close()
	os.Remove(tmp.Name())
}

// Write publishes data as key's blob through Temp and Publish: the
// first writer wins, and published reports whether this one did.
func (s *Store) Write(key string, data []byte) (published bool, err error) {
	tmp, err := s.Temp(key)
	if err != nil {
		return false, err
	}
	if _, err := tmp.Write(data); err != nil {
		Discard(tmp)
		return false, err
	}
	return s.Publish(key, tmp)
}

// Remove deletes key's blob, reporting whether one existed.
func (s *Store) Remove(key string) bool {
	return os.Remove(s.Path(key)) == nil
}

// entry is one published blob found by a scan.
type entry struct {
	path  string
	size  int64
	mtime time.Time
}

// scan lists the published blobs: files named <key><ext> in the shard
// directory key[:2]. Temp files, other extensions and anything outside
// the shard directories (another store nested under this one, say) are
// not the store's and are skipped. A nil store holds none.
func (s *Store) scan() ([]entry, error) {
	if s == nil {
		return nil, nil
	}
	shards, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var out []entry
	for _, sh := range shards {
		if !sh.IsDir() || len(sh.Name()) != 2 {
			continue
		}
		files, err := os.ReadDir(filepath.Join(s.dir, sh.Name()))
		if err != nil {
			continue // removed since the listing
		}
		for _, f := range files {
			key, ok := strings.CutSuffix(f.Name(), s.ext)
			if !ok || !ValidKey(key) || key[:2] != sh.Name() || !f.Type().IsRegular() {
				continue
			}
			info, err := f.Info()
			if err != nil {
				continue // removed since the listing
			}
			out = append(out, entry{
				path:  filepath.Join(s.dir, sh.Name(), f.Name()),
				size:  info.Size(),
				mtime: info.ModTime(),
			})
		}
	}
	return out, nil
}

// DiskStat returns the published blob count and their total bytes
// (both 0 for a nil store).
func (s *Store) DiskStat() (blobs, bytes int64) {
	found, _ := s.scan()
	for _, e := range found {
		bytes += e.size
	}
	return int64(len(found)), bytes
}

// GC bounds the store to maxBytes by deleting blobs least recently used
// first. Eviction is never a correctness event: an evicted blob is
// regenerated by whoever asks for it next. Concurrent readers of an
// evicted blob observe a miss (or, holding it open, finish reading it);
// a concurrent writer's fresh blob is the newest and goes last. Returns
// how many blobs were evicted and how many bytes they held. A nil store
// or a non-positive bound is a no-op.
func (s *Store) GC(maxBytes int64) (evicted int, reclaimed int64, err error) {
	if maxBytes <= 0 {
		return 0, 0, nil
	}
	found, err := s.scan()
	if err != nil {
		return 0, 0, fmt.Errorf("blob: gc %s: %w", s.dir, err)
	}
	var total int64
	for _, e := range found {
		total += e.size
	}
	sort.Slice(found, func(i, j int) bool { return found[i].mtime.Before(found[j].mtime) })
	for _, e := range found {
		if total-reclaimed <= maxBytes {
			break
		}
		if os.Remove(e.path) != nil {
			continue // already gone (racing GC or manual cleanup)
		}
		evicted++
		reclaimed += e.size
	}
	return evicted, reclaimed, nil
}
