package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"testing"
	"time"
)

// gcKey mints a distinct well-formed cache key per index.
func gcKey(i int) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("gc-%d", i)))
	return hex.EncodeToString(sum[:])
}

// TestCacheGCEvictsOldestFirst: entries are evicted in mtime order
// until the directory fits the bound, and survivors stay readable.
func TestCacheGCEvictsOldestFirst(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}

	const n = 6
	var size int64
	for i := 0; i < n; i++ {
		if err := c.Put(gcKey(i), Result{Bench: fmt.Sprintf("b%d", i), Hints: i}); err != nil {
			t.Fatal(err)
		}
		// Stagger mtimes explicitly: filesystem timestamp granularity is
		// far coarser than this loop.
		mt := time.Now().Add(time.Duration(i-n) * time.Minute)
		if err := os.Chtimes(c.blob.Path(gcKey(i)), mt, mt); err != nil {
			t.Fatal(err)
		}
		if fi, err := os.Stat(c.blob.Path(gcKey(i))); err == nil && i == 0 {
			size = fi.Size()
		}
	}

	// Bound to roughly half: the oldest entries must go, newest stay.
	evicted, reclaimed, err := c.GC(size*3 + size/2)
	if err != nil {
		t.Fatal(err)
	}
	if evicted < 2 || evicted >= n {
		t.Fatalf("evicted %d of %d entries (reclaimed %d bytes), want a strict subset >= 2", evicted, n, reclaimed)
	}
	for i := 0; i < evicted; i++ {
		if _, ok := c.Get(gcKey(i)); ok {
			t.Errorf("entry %d (oldest) survived GC that evicted %d", i, evicted)
		}
	}
	for i := evicted; i < n; i++ {
		if _, ok := c.Get(gcKey(i)); !ok {
			t.Errorf("entry %d (newer) evicted out of order", i)
		}
	}
}

// TestCacheGCTouchOnGet: a hit refreshes recency, so the LRU order
// follows use, not write order.
func TestCacheGCTouchOnGet(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := c.Put(gcKey(i), Result{Bench: fmt.Sprintf("b%d", i)}); err != nil {
			t.Fatal(err)
		}
		mt := time.Now().Add(time.Duration(i-10) * time.Minute)
		if err := os.Chtimes(c.blob.Path(gcKey(i)), mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	// Use the oldest entry: it must now outrank the middle one.
	if _, ok := c.Get(gcKey(0)); !ok {
		t.Fatal("priming get missed")
	}
	var size int64
	if fi, err := os.Stat(c.blob.Path(gcKey(0))); err == nil {
		size = fi.Size()
	}
	if _, _, err := c.GC(size * 2); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(gcKey(0)); !ok {
		t.Error("recently used entry evicted despite oldest write time")
	}
	if _, ok := c.Get(gcKey(1)); ok {
		t.Error("least recently used entry survived")
	}
}

// TestCacheGCNilAndUnbounded: the nil cache and a zero bound are
// no-ops, like every other cache operation.
func TestCacheGCNilAndUnbounded(t *testing.T) {
	var nilCache *Cache
	if n, _, err := nilCache.GC(1); n != 0 || err != nil {
		t.Fatalf("nil cache GC = (%d, %v)", n, err)
	}
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(gcKey(0), Result{Bench: "b"}); err != nil {
		t.Fatal(err)
	}
	if n, _, err := c.GC(0); n != 0 || err != nil {
		t.Fatalf("unbounded GC = (%d, %v), want no-op", n, err)
	}
	if _, ok := c.Get(gcKey(0)); !ok {
		t.Error("unbounded GC evicted an entry")
	}
}
