package ckpt

import (
	"bytes"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/emu"
	"repro/internal/prog"
	"repro/internal/workload"
)

const testKey = "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"

// buildState fabricates realistic window state: a genuinely-executed
// emulator checkpoint plus warmed hierarchy and predictor.
func buildState(t *testing.T, steps int) (*prog.Program, emu.Checkpoint, *cache.Hierarchy, *bpred.Predictor, cache.HierarchyConfig, bpred.Config) {
	t.Helper()
	b, ok := workload.ByName("gzip")
	if !ok {
		t.Fatal("no gzip workload")
	}
	p := b.Build(42)
	e, err := emu.New(p)
	if err != nil {
		t.Fatal(err)
	}
	e.Restart = true
	for i := 0; i < steps; i++ {
		if _, ok := e.Next(); !ok {
			t.Fatal("emulator halted early")
		}
	}
	ccfg := cache.HierarchyConfig{}.WithDefaults()
	h, err := cache.NewHierarchy(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	bcfg := bpred.Config{}.WithDefaults()
	bp := bpred.New(bcfg)
	for i := 0; i < 500; i++ {
		h.WarmLoad(uint64(0x1000 + 64*i))
		h.WarmFetch(i % 97)
		bp.TrainCond(i%311, i%3 == 0)
		bp.UpdateBTB(i%311, (i*7)%1024)
	}
	return p, e.Checkpoint(), h, bp, ccfg, bcfg
}

func TestOpenEmptyAndNilStore(t *testing.T) {
	s, err := Open("")
	if err != nil || s != nil {
		t.Fatalf("Open(\"\") = %v, %v; want nil, nil", s, err)
	}
	// Every method must be nil-safe: checkpointing off is a nil store.
	if s.Has(testKey) {
		t.Error("nil store claims an artifact")
	}
	s.Lock(testKey)() // must not panic
	if _, err := s.ReadRaw(testKey); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("nil ReadRaw err = %v", err)
	}
	if w, err := s.Create(testKey, 1000); w != nil || err != nil {
		t.Errorf("nil Create = %v, %v", w, err)
	}
	if _, err := s.OpenArtifact(testKey, 1000, nil, cache.HierarchyConfig{}, bpred.Config{}); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("nil OpenArtifact err = %v", err)
	}
	if m := s.Metrics(); m != (Metrics{}) {
		t.Errorf("nil Metrics = %+v", m)
	}
	if a, b := s.DiskStat(); a != 0 || b != 0 {
		t.Errorf("nil DiskStat = %d, %d", a, b)
	}
	var nilW *Writer
	nilW.Abort() // must not panic
}

func TestArtifactRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p, ck, h, bp, ccfg, bcfg := buildState(t, 2000)

	w, err := st.Create(testKey, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	wins := []Window{
		{StartReal: 1000, LastHint: 0, Ckpt: ck, Mem: cloneMem(h), Bp: cloneBp(bp)},
		{StartReal: 6000, LastHint: 3, Ckpt: ck, Mem: cloneMem(h), Bp: cloneBp(bp)},
		{StartReal: 11000, LastHint: 1, Ckpt: ck, Mem: cloneMem(h), Bp: cloneBp(bp)},
	}
	for i := range wins {
		if err := w.Append(&wins[i]); err != nil {
			t.Fatal(err)
		}
	}
	if st.Has(testKey) {
		t.Fatal("artifact visible before Commit")
	}
	tr := Trailer{TotalReal: 50_000, WarmedReal: 9_000, FastForwardReal: 38_000}
	if err := w.Commit(tr); err != nil {
		t.Fatal(err)
	}
	if !st.Has(testKey) {
		t.Fatal("artifact not published after Commit")
	}

	r, err := st.OpenArtifact(testKey, 50_000, p, ccfg, bcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := range wins {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("window %d: %v", i, err)
		}
		checkWindow(t, i, got, &wins[i])
		if !got.Ckpt.Equal(&wins[i].Ckpt) {
			t.Errorf("window %d: checkpoint round-trip differs", i)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("after last window: %v, want io.EOF", err)
	}
	gotTr, ok := r.Trailer()
	if !ok || gotTr.TotalReal != tr.TotalReal || gotTr.WarmedReal != tr.WarmedReal ||
		gotTr.FastForwardReal != tr.FastForwardReal || gotTr.Windows != len(wins) {
		t.Errorf("trailer = %+v (ok=%v), want %+v with %d windows", gotTr, ok, tr, len(wins))
	}

	m := st.Metrics()
	if m.Generated != 1 || m.Hits != 1 || m.BytesWritten == 0 || m.BytesRead == 0 {
		t.Errorf("metrics = %+v", m)
	}
}

// TestOpenArtifactGeometryMismatch: resuming against a different cache
// geometry must fail loudly, never deserialize into the wrong shape.
func TestOpenArtifactGeometryMismatch(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p, ck, h, bp, ccfg, bcfg := buildState(t, 500)
	w, err := st.Create(testKey, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(&Window{StartReal: 100, Ckpt: ck, Mem: h, Bp: bp}); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(Trailer{TotalReal: 10_000}); err != nil {
		t.Fatal(err)
	}
	wrong := ccfg
	wrong.L2.SizeBytes = ccfg.L2.SizeBytes * 2
	r, err := st.OpenArtifact(testKey, 10_000, p, wrong, bcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Next(); err == nil {
		t.Fatal("mismatched geometry deserialized without error")
	}
}

func TestWriteRawValidation(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteRaw(testKey, []byte("garbage")); err == nil {
		t.Fatal("garbage accepted as artifact")
	}
	if st.Has(testKey) {
		t.Fatal("garbage published")
	}

	// A real artifact's bytes must install under another key (the
	// worker-upload path) ...
	p, ck, h, bp, ccfg, bcfg := buildState(t, 500)
	w, _ := st.Create(testKey, 10_000)
	if err := w.Append(&Window{StartReal: 1, Ckpt: ck, Mem: h, Bp: bp}); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(Trailer{TotalReal: 10_000}); err != nil {
		t.Fatal(err)
	}
	data, err := st.ReadRaw(testKey)
	if err != nil {
		t.Fatal(err)
	}
	other := "abcdabcdabcdabcdabcdabcdabcdabcd"
	if err := st.WriteRaw(other, data); err != nil {
		t.Fatal(err)
	}
	r, err := st.OpenArtifact(other, 10_000, p, ccfg, bcfg)
	if err != nil {
		t.Fatal(err)
	}
	r.Close()

	// ... and an already-present key is first-writer-wins: a second
	// write is a silent no-op, never an overwrite.
	before, _ := os.Stat(filepath.Join(dir, other[:2], other+".ckpt"))
	if err := st.WriteRaw(other, data); err != nil {
		t.Fatal(err)
	}
	after, _ := os.Stat(filepath.Join(dir, other[:2], other+".ckpt"))
	if !after.ModTime().Equal(before.ModTime()) || after.Size() != before.Size() {
		t.Error("second WriteRaw overwrote an existing artifact")
	}
}

// TestInvalidKeys: anything that is not lowercase hex of sane length —
// e.g. a path-traversal attempt arriving over HTTP — must be rejected
// before it reaches the filesystem.
func TestInvalidKeys(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"", "short", "../../../../etc/passwd", "ABCDEF0123456789",
		"0123456789abcdeg", "0123/6789abcdef0",
	} {
		if st.Has(key) {
			t.Errorf("Has(%q) = true", key)
		}
		if _, err := st.Create(key, 1); err == nil {
			t.Errorf("Create(%q) accepted", key)
		}
		if err := st.WriteRaw(key, nil); err == nil {
			t.Errorf("WriteRaw(%q) accepted", key)
		}
		st.evict(key)
	}
	if m := st.Metrics(); m.Evicted != 0 {
		t.Errorf("evicting invalid keys counted %d evictions", m.Evicted)
	}
}

func TestRemoveAndDiskStat(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, ck, h, bp, _, _ := buildState(t, 200)
	keys := []string{testKey, "abcdabcdabcdabcdabcdabcdabcdabcd"}
	for _, k := range keys {
		w, err := st.Create(k, 1000)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(&Window{StartReal: 1, Ckpt: ck, Mem: h, Bp: bp}); err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(Trailer{TotalReal: 1000}); err != nil {
			t.Fatal(err)
		}
	}
	if n, b := st.DiskStat(); n != 2 || b <= 0 {
		t.Fatalf("DiskStat = %d artifacts, %d bytes; want 2, >0", n, b)
	}
	st.evict(keys[0])
	st.evict(keys[0]) // gone: counts nothing
	if n, _ := st.DiskStat(); n != 1 {
		t.Fatalf("DiskStat after remove = %d, want 1", n)
	}
	if m := st.Metrics(); m.Evicted != 1 {
		t.Errorf("Evicted = %d, want 1", m.Evicted)
	}
}

// TestAbortLeavesNoTrace: an aborted generation must leave neither the
// artifact nor temp litter behind.
func TestAbortLeavesNoTrace(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, ck, h, bp, _, _ := buildState(t, 200)
	w, err := st.Create(testKey, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(&Window{StartReal: 1, Ckpt: ck, Mem: h, Bp: bp}); err != nil {
		t.Fatal(err)
	}
	w.Abort()
	w.Abort() // idempotent
	if st.Has(testKey) {
		t.Fatal("aborted artifact published")
	}
	var left []string
	filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			left = append(left, path)
		}
		return nil
	})
	if len(left) != 0 {
		t.Fatalf("files left behind: %v", left)
	}
}

// TestLockSerializes: two claimants of one key must never hold the
// generation lock at once.
func TestLockSerializes(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var inside, maxInside int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			unlock := st.Lock(testKey)
			mu.Lock()
			inside++
			if inside > maxInside {
				maxInside = inside
			}
			mu.Unlock()
			mu.Lock()
			inside--
			mu.Unlock()
			unlock()
		}()
	}
	wg.Wait()
	if maxInside != 1 {
		t.Fatalf("lock admitted %d holders at once", maxInside)
	}
	st.genMu.Lock()
	leak := len(st.gen)
	st.genMu.Unlock()
	if leak != 0 {
		t.Errorf("%d key locks leaked after release", leak)
	}
}

// commitArtifact generates and commits a one-window artifact for key.
func commitArtifact(t *testing.T, st *Store, key string, budget int64) {
	t.Helper()
	_, ck, h, bp, _, _ := buildState(t, 200)
	w, err := st.Create(key, budget)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(&Window{StartReal: 1, Ckpt: ck, Mem: h, Bp: bp}); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(Trailer{TotalReal: budget}); err != nil {
		t.Fatal(err)
	}
}

// TestCommitFirstWriterWins: generating onto a published key keeps the
// published artifact, as WriteRaw does, and does not count as
// generated.
func TestCommitFirstWriterWins(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	commitArtifact(t, st, testKey, 1000)
	first, err := st.ReadRaw(testKey)
	if err != nil {
		t.Fatal(err)
	}
	commitArtifact(t, st, testKey, 2000)
	again, err := st.ReadRaw(testKey)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, first) {
		t.Error("a second Commit replaced the published artifact")
	}
	if m := st.Metrics(); m.Generated != 1 || m.BytesWritten != int64(len(first)) {
		t.Errorf("metrics = %+v, want one generated artifact of %d bytes", m, len(first))
	}
}

// TestGCEvictsLeastRecentlyUsed: GC bounds the store by recency of use
// — an artifact opened or read since outranks one written later — and
// counts its evictions.
func TestGCEvictsLeastRecentlyUsed(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	p, _, _, _, ccfg, bcfg := buildState(t, 200)
	keys := []string{"aaaa0000aaaa0000", "bbbb0000bbbb0000", "cccc0000cccc0000"}
	var size int64
	for i, k := range keys {
		commitArtifact(t, st, k, 1000)
		mt := time.Now().Add(time.Duration(i-10) * time.Minute)
		path := filepath.Join(dir, k[:2], k+".ckpt")
		if err := os.Chtimes(path, mt, mt); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		size = max(size, fi.Size())
	}
	r, err := st.OpenArtifact(keys[0], 1000, p, ccfg, bcfg)
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	if _, err := st.ReadRaw(keys[1]); err != nil {
		t.Fatal(err)
	}
	if n, _, err := st.GC(2 * size); err != nil || n != 1 {
		t.Fatalf("GC = %d, %v; want one eviction", n, err)
	}
	if !st.Has(keys[0]) || !st.Has(keys[1]) || st.Has(keys[2]) {
		t.Error("GC did not evict the least recently used artifact")
	}
	if _, _, err := st.GC(1); err != nil {
		t.Fatal(err)
	}
	if n, _ := st.DiskStat(); n != 0 {
		t.Errorf("%d artifacts survive GC(1)", n)
	}
	if m := st.Metrics(); m.Evicted != 3 {
		t.Errorf("Evicted = %d, want 3", m.Evicted)
	}
}

// cloneMem returns an independent copy of a hierarchy.
func cloneMem(h *cache.Hierarchy) *cache.Hierarchy {
	c := new(cache.Hierarchy)
	h.CopyInto(c)
	return c
}

// cloneBp returns an independent copy of a predictor.
func cloneBp(bp *bpred.Predictor) *bpred.Predictor {
	c := new(bpred.Predictor)
	bp.CopyInto(c)
	return c
}
