package ckpt

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/binio"
	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/prog"
	"repro/internal/workload"
)

const otherKey = "abcdabcdabcdabcdabcdabcdabcdabcd"

// artifactBudget is the budget writeArtifact records and readWindows
// opens with.
const artifactBudget = 1_000_000

// streamWindows returns n windows taken every gap instructions along one
// stream of p, with a hierarchy and predictor warmed by that stream.
// Before each window the stream also maps a page it has not touched and
// pushes a return address, so every delta carries a new page and the
// predictor state changes length while its return stack fills.
func streamWindows(tb testing.TB, p *prog.Program, ccfg cache.HierarchyConfig, bcfg bpred.Config, n, gap int) []Window {
	tb.Helper()
	e, err := emu.New(p)
	if err != nil {
		tb.Fatal(err)
	}
	e.Restart = true
	h, err := cache.NewHierarchy(ccfg)
	if err != nil {
		tb.Fatal(err)
	}
	bp := bpred.New(bcfg)
	var wins []Window
	for w := 0; w < n; w++ {
		for i := 0; i < gap; i++ {
			d, ok := e.Next()
			if !ok {
				tb.Fatal("emulator halted")
			}
			h.WarmFetch(d.PC)
			switch d.Op.Class() {
			case isa.ClassLoad:
				h.WarmLoad(d.Addr)
			case isa.ClassStore:
				h.WarmStore(d.Addr)
			case isa.ClassBranch:
				bp.TrainCond(d.PC, d.Taken)
			}
		}
		e.Mem().Store(uint64(1+w)<<30, int64(w))
		bp.WarmCall(4 * w)
		wins = append(wins, Window{
			StartReal: int64(w * gap),
			LastHint:  w % 3,
			Ckpt:      e.Checkpoint(),
			Mem:       cloneMem(h),
			Bp:        cloneBp(bp),
		})
	}
	return wins
}

// writeArtifact publishes wins under key and returns the artifact bytes.
func writeArtifact(tb testing.TB, st *Store, key string, wins []Window) []byte {
	tb.Helper()
	w, err := st.Create(key, artifactBudget)
	if err != nil {
		tb.Fatal(err)
	}
	for i := range wins {
		if err := w.Append(&wins[i]); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Commit(Trailer{TotalReal: artifactBudget}); err != nil {
		tb.Fatal(err)
	}
	data, err := st.ReadRaw(key)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// install writes data as the artifact file for key, bypassing WriteRaw.
func install(tb testing.TB, st *Store, key string, data []byte) {
	tb.Helper()
	p := st.blob.Path(key)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		tb.Fatal(err)
	}
	if err := os.WriteFile(p, data, 0o644); err != nil {
		tb.Fatal(err)
	}
}

// readWindows reads the artifact under key to its end and hands each
// window, with its index, to each (when not nil) before reading the
// next: a window is the reader's storage, valid only until then. It
// returns how many windows were read and the error that ended the read:
// nil after the trailer.
func readWindows(st *Store, key string, p *prog.Program, ccfg cache.HierarchyConfig, bcfg bpred.Config, each func(int, *Window)) (int, error) {
	r, err := st.OpenArtifact(key, artifactBudget, p, ccfg, bcfg)
	if err != nil {
		return 0, err
	}
	defer r.Close()
	for n := 0; ; n++ {
		win, err := r.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		if each != nil {
			each(n, win)
		}
	}
}

// checkWindow compares a window read back with the one written.
func checkWindow(t *testing.T, i int, got, want *Window) {
	t.Helper()
	if got.StartReal != want.StartReal || got.LastHint != want.LastHint {
		t.Errorf("window %d: got (%d,%d), want (%d,%d)", i, got.StartReal, got.LastHint, want.StartReal, want.LastHint)
	}
	if !bytes.Equal(got.Mem.AppendState(nil), want.Mem.AppendState(nil)) {
		t.Errorf("window %d: hierarchy state differs", i)
	}
	if !bytes.Equal(got.Bp.AppendState(nil), want.Bp.AppendState(nil)) {
		t.Errorf("window %d: predictor state differs", i)
	}
}

func gunzip(tb testing.TB, data []byte) []byte {
	tb.Helper()
	gz, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		tb.Fatal(err)
	}
	body, err := io.ReadAll(gz)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

func gzipAt(tb testing.TB, body []byte, level int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	gz, err := gzip.NewWriterLevel(&buf, level)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := gz.Write(body); err != nil {
		tb.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestArtifactDeltaRoundTrip: windows along one stream, whose pages,
// cache lines and predictor length change between windows, read back
// whole from their deltas, each with its own page map.
func TestArtifactDeltaRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b, _ := workload.ByName("gzip")
	p := b.Build(42)
	ccfg, bcfg := cache.HierarchyConfig{}.WithDefaults(), bpred.Config{}.WithDefaults()
	wins := streamWindows(t, p, ccfg, bcfg, 4, 3000)
	delta := writeArtifact(t, st, testKey, wins)

	var ckpts []emu.Checkpoint
	n, err := readWindows(st, testKey, p, ccfg, bcfg, func(i int, g *Window) {
		if i < len(wins) {
			checkWindow(t, i, g, &wins[i])
		}
		ckpts = append(ckpts, g.Ckpt)
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(wins) {
		t.Fatalf("read %d windows, wrote %d", n, len(wins))
	}
	// Every checkpoint is compared after all were read: one that shared
	// its page map with the reader would have gained the later windows'
	// pages.
	for i := range ckpts {
		if !ckpts[i].Equal(&wins[i].Ckpt) {
			t.Errorf("window %d: checkpoint differs", i)
		}
	}

	// Written one artifact each, the windows carry their whole state.
	whole := 0
	for i := range wins {
		whole += len(writeArtifact(t, st, fmt.Sprintf("%032x", i+1), wins[i:i+1]))
	}
	if len(delta) >= whole {
		t.Errorf("delta artifact is %d bytes, %d one-window artifacts total %d", len(delta), len(wins), whole)
	}
}

// TestWindowChangedBeforeNext: the reader decodes every window into the
// same storage, which the consumer may change until the next call to
// Next, as a detailed run on the last cell of a lockstep batch does.
// Here each window's caches are accessed, its predictor trained and its
// checkpoint resumed before the next is read; every window must still
// read back as written, with zero statistics.
func TestWindowChangedBeforeNext(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b, _ := workload.ByName("gzip")
	p := b.Build(42)
	ccfg, bcfg := cache.HierarchyConfig{}.WithDefaults(), bpred.Config{}.WithDefaults()
	wins := streamWindows(t, p, ccfg, bcfg, 4, 3000)
	writeArtifact(t, st, testKey, wins)

	var storage *Window
	n, err := readWindows(st, testKey, p, ccfg, bcfg, func(i int, g *Window) {
		if i >= len(wins) {
			return
		}
		if storage != nil && (g != storage || g.Mem != storage.Mem || g.Bp != storage.Bp) {
			t.Errorf("window %d: decoded into new storage", i)
		}
		storage = g
		checkWindow(t, i, g, &wins[i])
		if !g.Ckpt.Equal(&wins[i].Ckpt) {
			t.Errorf("window %d: checkpoint differs", i)
		}
		if g.Mem.DL1.Stats != (cache.Stats{}) || g.Mem.IL1.Stats != (cache.Stats{}) || g.Mem.L2.Stats != (cache.Stats{}) || g.Bp.Stats != (bpred.Stats{}) {
			t.Errorf("window %d: decoded with the previous run's statistics", i)
		}
		e, err := emu.NewFromCheckpoint(p, g.Ckpt)
		if err != nil {
			t.Fatal(err)
		}
		e.Restart = true
		for k := 0; k < 5000; k++ {
			d, ok := e.Next()
			if !ok {
				t.Fatal("emulator halted")
			}
			g.Mem.FetchLatency(d.PC)
			g.Mem.LoadLatency(uint64(0x9000_0000 + 64*k))
			g.Bp.PredictCond(d.PC)
			g.Bp.UpdateCond(d.PC, k%3 == 0)
			g.Bp.LookupBTB(d.PC)
			g.Bp.UpdateBTB(d.PC, 8*k)
			g.Bp.PushRAS(d.PC)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(wins) {
		t.Fatalf("read %d windows, wrote %d", n, len(wins))
	}
}

// TestArtifactChecksumVerified: a flip that leaves the record stream
// decodable, so that the windows decode on silently altered state, must
// still be caught by the gzip checksum — by the reader once it reaches
// the trailer, and by WriteRaw before it publishes.
func TestArtifactChecksumVerified(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p, ck, h, bp, ccfg, bcfg := buildState(t, 2000)
	wins := []Window{
		{StartReal: 1000, Ckpt: ck, Mem: h, Bp: bp},
		{StartReal: 6000, LastHint: 2, Ckpt: ck, Mem: cloneMem(h), Bp: cloneBp(bp)},
	}
	data := writeArtifact(t, st, testKey, wins)

	// Stored uncompressed, the body appears verbatim in the file, so one
	// flip changes one body byte: here a bit of the first window's
	// register r5. It follows the artifact header, the record's tag and
	// length, StartReal, LastHint, the checkpoint's length and magic, and
	// registers r0–r4.
	body := gunzip(t, data)
	stored := gzipAt(t, body, gzip.NoCompression)
	at := bytes.Index(stored, body[:64])
	if at < 0 {
		t.Fatal("body not found in the stored re-encoding")
	}
	flipped := append([]byte(nil), stored...)
	flipped[at+len(artifactMagic)+4+8+1+4+8+8+4+4+8*5] ^= 1
	footer := append([]byte(nil), data...)
	footer[len(footer)-8] ^= 1 // the CRC-32 in the gzip footer

	install(t, st, otherKey, stored)
	if n, err := readWindows(st, otherKey, p, ccfg, bcfg, nil); err != nil || n != 2 {
		t.Fatalf("stored re-encoding: %d windows, %v", n, err)
	}
	for name, corrupt := range map[string][]byte{"body": flipped, "footer": footer} {
		install(t, st, otherKey, corrupt)
		var first emu.Checkpoint
		n, err := readWindows(st, otherKey, p, ccfg, bcfg, func(i int, w *Window) {
			if i == 0 {
				first = w.Ckpt
			}
		})
		if !errors.Is(err, gzip.ErrChecksum) {
			t.Errorf("%s flip: read ended with %v, want a checksum error", name, err)
		}
		if n != 2 {
			t.Fatalf("%s flip: %d windows decoded before the trailer, want 2", name, n)
		}
		if name == "body" && first.Equal(&ck) {
			t.Error("body flip left the first window's checkpoint as written")
		}
		if err := st.WriteRaw(otherKey, corrupt); !errors.Is(err, gzip.ErrChecksum) {
			t.Errorf("%s flip: WriteRaw = %v, want a checksum error", name, err)
		}
		if st.Has(otherKey) {
			t.Errorf("%s flip: WriteRaw published the artifact", name)
		}
	}
}

// TestArtifactBytesAfterTrailer: the trailer ends an artifact.
func TestArtifactBytesAfterTrailer(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p, ck, h, bp, ccfg, bcfg := buildState(t, 500)
	data := writeArtifact(t, st, testKey, []Window{{StartReal: 1, Ckpt: ck, Mem: h, Bp: bp}})
	install(t, st, otherKey, gzipAt(t, append(gunzip(t, data), 0), gzip.BestSpeed))
	if _, err := readWindows(st, otherKey, p, ccfg, bcfg, nil); err == nil {
		t.Fatal("artifact with a byte after its trailer read cleanly")
	}
}

// TestFormat1Artifact: testdata/v1.ckpt was written by the format-1
// build, for gzip at seed 42 with a 6,000-instruction budget under
// internal/sample's test regime, and testdata/v2.ckpt by the format-2
// build, for gzip at seed 42 with a 60,000-instruction budget under
// internal/sample's lockstep test regime. Opening either fails with an
// error that names its version and evicts it, so a resuming run treats
// it as a miss, and WriteRaw refuses it. Found in a store, either is
// absent: OpenArtifact and ReadRaw (fs.ErrNotExist) each remove it, and
// WriteRaw replaces it with a current artifact.
func TestFormat1Artifact(t *testing.T) {
	b, _ := workload.ByName("gzip")
	p := b.Build(42)
	ccfg, bcfg := cache.HierarchyConfig{}.WithDefaults(), bpred.Config{}.WithDefaults()
	for _, tc := range []struct {
		file, version string
		budget        int64
	}{
		{"testdata/v1.ckpt", "version 1", 6_000},
		{"testdata/v2.ckpt", "version 2", 60_000},
	} {
		old, err := os.ReadFile(tc.file)
		if err != nil {
			t.Fatal(err)
		}
		st, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		install(t, st, testKey, old)
		_, err = st.OpenArtifact(testKey, tc.budget, p, ccfg, bcfg)
		if err == nil || !strings.Contains(err.Error(), tc.version) {
			t.Fatalf("%s: OpenArtifact = %v, want an error naming %s", tc.file, err, tc.version)
		}
		if err := st.WriteRaw(otherKey, old); err == nil || !strings.Contains(err.Error(), tc.version) {
			t.Fatalf("%s: WriteRaw = %v, want an error naming %s", tc.file, err, tc.version)
		}
		if st.Has(otherKey) {
			t.Fatalf("%s: WriteRaw published an older format's artifact", tc.file)
		}

		if st.Has(testKey) {
			t.Errorf("%s: Has reports an older format's artifact", tc.file)
		}
		install(t, st, testKey, old)
		if _, err := st.ReadRaw(testKey); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("%s: ReadRaw = %v, want fs.ErrNotExist", tc.file, err)
		}
		if n, _ := st.DiskStat(); n != 0 {
			t.Errorf("%s: %d artifacts left after Has and ReadRaw, want 0", tc.file, n)
		}
		if m := st.Metrics(); m.Evicted != 2 {
			t.Errorf("%s: %d evictions, want 2 (one by OpenArtifact, one by ReadRaw)", tc.file, m.Evicted)
		}
		install(t, st, testKey, old)
		current := writeArtifact(t, st, otherKey, streamWindows(t, p, ccfg, bcfg, 2, 1000))
		if err := st.WriteRaw(testKey, current); err != nil {
			t.Fatalf("%s: WriteRaw over it: %v", tc.file, err)
		}
		if got, err := st.ReadRaw(testKey); err != nil || !bytes.Equal(got, current) {
			t.Errorf("%s: after WriteRaw the store holds %d bytes (%v), want the %d uploaded", tc.file, len(got), err, len(current))
		}
	}
}

// TestAppendRefusesWideSets: a set wider than a rank byte can order has
// no format-3 encoding, so the writer refuses the first window of a
// hierarchy or predictor with one, and nothing is published.
func TestAppendRefusesWideSets(t *testing.T) {
	b, _ := workload.ByName("gzip")
	p := b.Build(42)
	wideCache := cache.HierarchyConfig{}.WithDefaults()
	wideCache.L2.Assoc = 512
	wideBTB := bpred.Config{}.WithDefaults()
	wideBTB.BTBAssoc = 512
	for name, geo := range map[string]struct {
		c cache.HierarchyConfig
		b bpred.Config
	}{
		"cache": {wideCache, bpred.Config{}.WithDefaults()},
		"btb":   {cache.HierarchyConfig{}.WithDefaults(), wideBTB},
	} {
		st, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		w, err := st.Create(testKey, 1_000_000)
		if err != nil {
			t.Fatal(err)
		}
		win := streamWindows(t, p, geo.c, geo.b, 1, 500)[0]
		if err := w.Append(&win); err == nil || !strings.Contains(err.Error(), "512-way") {
			t.Errorf("%s: Append = %v, want an error naming 512-way sets", name, err)
		}
		w.Abort()
		if n, _ := st.DiskStat(); n != 0 {
			t.Errorf("%s: %d artifacts published", name, n)
		}
	}
}

func TestStateDiff(t *testing.T) {
	prev := make([]byte, 1000)
	for i := range prev {
		prev[i] = byte(i * 7)
	}
	cur := append([]byte(nil), prev...)
	for _, off := range []int{0, 31, 32, 500, 531, 999} {
		cur[off] ^= 0xff
	}
	for _, tc := range []struct {
		name        string
		prev, state []byte
		first       bool
	}{
		{"runs", prev, cur, false},
		{"unchanged", prev, prev, false},
		{"first window", prev, cur, true},
		{"length change", prev, cur[:900], false},
	} {
		var w binio.Writer
		appendDiff(&w, tc.prev, tc.state, tc.first)
		r := binio.NewReader(w.Bytes())
		got, err := readDiff(r, append([]byte(nil), tc.prev...), tc.first)
		if err != nil || !bytes.Equal(got, tc.state) || r.Remaining() != 0 {
			t.Errorf("%s: diff round trip: err %v, equal %v, %d bytes left", tc.name, err, bytes.Equal(got, tc.state), r.Remaining())
		}
	}
	// Six flipped bytes in five blocks make three runs: [0, 64),
	// [480, 544) and the short last block [992, 1000).
	var w binio.Writer
	appendDiff(&w, prev, cur, false)
	if want := 4 + 4 + 3*8 + 64 + 64 + 8; w.Len() != want {
		t.Errorf("diff is %d bytes, want %d", w.Len(), want)
	}

	for name, enc := range map[string]func(*binio.Writer){
		"run past the end":    func(w *binio.Writer) { w.U32(1000); w.U32(1); w.U32(996); w.U32(8); w.Raw(make([]byte, 8)) },
		"offset past the end": func(w *binio.Writer) { w.U32(1000); w.U32(1); w.U32(1001); w.U32(0) },
		"truncated run":       func(w *binio.Writer) { w.U32(1000); w.U32(1); w.U32(0); w.U32(8); w.Raw(make([]byte, 4)) },
		"truncated count":     func(w *binio.Writer) { w.U32(1000); w.U32(2); w.U32(0); w.U32(1); w.U8(0) },
	} {
		var w binio.Writer
		enc(&w)
		if _, err := readDiff(binio.NewReader(w.Bytes()), append([]byte(nil), prev...), false); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	var big binio.Writer
	big.U32(maxRecordBytes + 1)
	if _, err := readDiff(binio.NewReader(big.Bytes()), nil, true); err == nil {
		t.Error("state longer than maxRecordBytes accepted")
	}
}

// fuzzProg is a loop over one data page with a call, small enough that
// an artifact of it fits a fuzz corpus.
func fuzzProg(tb testing.TB) *prog.Program {
	tb.Helper()
	b := prog.NewBuilder("fuzz")
	base := b.AppendData(make([]int64, 16)...)
	b.Proc("main").Entry().
		Li(isa.R(1), 100).
		Li(isa.R(2), int64(base)).
		Label("loop").
		Andi(isa.R(3), isa.R(1), 15).
		Shli(isa.R(3), isa.R(3), 3).
		Add(isa.R(4), isa.R(2), isa.R(3)).
		Ld(isa.R(5), isa.R(4), 0).
		Add(isa.R(5), isa.R(5), isa.R(1)).
		St(isa.R(5), isa.R(4), 0).
		Call("leaf").
		Addi(isa.R(1), isa.R(1), -1).
		Bne(isa.R(1), isa.RZero, "loop").
		Halt()
	b.Proc("leaf").
		Addi(isa.R(6), isa.R(6), 1).
		Ret()
	return b.MustBuild()
}

// The fuzz artifacts' geometry: a few dozen lines per cache level and a
// few dozen predictor entries.
var (
	fuzzCaches = cache.HierarchyConfig{
		IL1:       cache.Config{Name: "il1", SizeBytes: 512, LineBytes: 32, Assoc: 2, HitCycles: 1},
		DL1:       cache.Config{Name: "dl1", SizeBytes: 512, LineBytes: 32, Assoc: 2, HitCycles: 2},
		L2:        cache.Config{Name: "l2", SizeBytes: 2048, LineBytes: 64, Assoc: 4, HitCycles: 10},
		MemCycles: 50,
	}
	fuzzBpred = bpred.Config{
		GshareEntries: 64, BimodalEntries: 64, SelectorEntries: 64, HistoryBits: 6,
		BTBEntries: 16, BTBAssoc: 4, RASEntries: 4,
	}
)

// FuzzArtifactReader opens arbitrary bytes as an artifact and reads it
// to its end; nothing may panic. Each input is tried as the artifact
// file and, so that mutations reach the record decoders instead of
// failing gzip's checksum, as the decompressed body of one. The
// committed seed is a format-3 three-window artifact of fuzzProg; its
// body is added here.
func FuzzArtifactReader(f *testing.F) {
	p := fuzzProg(f)
	st, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(gunzip(f, writeArtifact(f, st, testKey, streamWindows(f, p, fuzzCaches, fuzzBpred, 3, 400))))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, file := range [][]byte{data, gzipAt(t, data, gzip.NoCompression)} {
			install(t, st, testKey, file)
			readWindows(st, testKey, p, fuzzCaches, fuzzBpred, nil)
		}
	})
}
