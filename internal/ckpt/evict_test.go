package ckpt

import (
	"errors"
	"io/fs"
	"os"
	"testing"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/workload"
)

// TestReadRawEvictsCorrupt: ReadRaw hands out only a container WriteRaw
// would accept. A current-format artifact whose gzip footer fails its
// checksum, or that lost its last byte, is evicted and answered as
// absent, so a server answers the fetch with 404 and keeps the next
// upload; an intact one is read as it is.
func TestReadRawEvictsCorrupt(t *testing.T) {
	b, _ := workload.ByName("gzip")
	p := b.Build(42)
	ccfg, bcfg := cache.HierarchyConfig{}.WithDefaults(), bpred.Config{}.WithDefaults()
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	good := writeArtifact(t, st, otherKey, streamWindows(t, p, ccfg, bcfg, 2, 1000))
	footer := append([]byte(nil), good...)
	footer[len(footer)-8] ^= 1 // the CRC-32 in the gzip footer
	for name, corrupt := range map[string][]byte{"footer": footer, "truncated": good[:len(good)-1]} {
		install(t, st, testKey, corrupt)
		before := st.Metrics().Evicted
		if _, err := st.ReadRaw(testKey); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("%s: ReadRaw = %v, want fs.ErrNotExist", name, err)
		}
		if _, err := os.Stat(st.blob.Path(testKey)); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("%s: the artifact is still on disk (%v)", name, err)
		}
		if got := st.Metrics().Evicted; got != before+1 {
			t.Errorf("%s: Evicted %d -> %d, want one more", name, before, got)
		}
		if err := st.WriteRaw(testKey, good); err != nil {
			t.Fatalf("%s: upload after the eviction: %v", name, err)
		}
		if got, err := st.ReadRaw(testKey); err != nil || string(got) != string(good) {
			t.Errorf("%s: the upload did not replace the corrupt artifact (%v)", name, err)
		}
	}
	if m := st.Metrics(); m.Evicted != 2 {
		t.Errorf("Evicted = %d, want 2", m.Evicted)
	}
}

// TestReaderEvictsUnusable: a Reader that cannot decode its artifact
// evicts it, with no call from its caller: at open (not gzip), mid-stream
// (a record cut short), and at the trailer (a footer checksum that
// fails after every window decoded). An artifact of another budget is a
// miss that stays, and so is one read only part of the way.
func TestReaderEvictsUnusable(t *testing.T) {
	b, _ := workload.ByName("gzip")
	p := b.Build(42)
	ccfg, bcfg := cache.HierarchyConfig{}.WithDefaults(), bpred.Config{}.WithDefaults()
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	good := writeArtifact(t, st, otherKey, streamWindows(t, p, ccfg, bcfg, 3, 1000))
	footer := append([]byte(nil), good...)
	footer[len(footer)-8] ^= 1
	body := gunzip(t, good)
	for _, tc := range []struct {
		name    string
		data    []byte
		windows int
	}{
		{"garbage", []byte("not an artifact"), 0},
		// The trailer record is 33 bytes, so this cuts the last window's.
		{"cut record", gzipAt(t, body[:len(body)-40], 1), 2},
		{"footer", footer, 3},
	} {
		install(t, st, testKey, tc.data)
		before := st.Metrics().Evicted
		n, err := readWindows(st, testKey, p, ccfg, bcfg, nil)
		if err == nil || n != tc.windows {
			t.Errorf("%s: read %d windows, ending with %v; want %d and an error", tc.name, n, err, tc.windows)
		}
		if st.Has(testKey) {
			t.Errorf("%s: the unusable artifact is still in the store", tc.name)
		}
		if got := st.Metrics().Evicted; got != before+1 {
			t.Errorf("%s: Evicted %d -> %d, want one more", tc.name, before, got)
		}
	}

	install(t, st, testKey, good)
	m := st.Metrics()
	if _, err := st.OpenArtifact(testKey, artifactBudget+1, p, ccfg, bcfg); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("another budget: OpenArtifact = %v, want a miss (fs.ErrNotExist)", err)
	}
	r, err := st.OpenArtifact(testKey, artifactBudget, p, ccfg, bcfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	r.Close()
	after := st.Metrics()
	if !st.Has(testKey) || after.Evicted != m.Evicted || after.Misses != m.Misses+1 || after.Hits != m.Hits+1 {
		t.Errorf("budget miss and partial read: metrics %+v, then %+v; want one miss, one hit, no eviction", m, after)
	}
}

// TestHasEvictsOlderFormat: Has opens an artifact's header, and one in
// an older format is evicted and reported absent.
func TestHasEvictsOlderFormat(t *testing.T) {
	old, err := os.ReadFile("testdata/v1.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	install(t, st, testKey, old)
	if st.Has(testKey) {
		t.Error("Has reports an older format's artifact")
	}
	if n, _ := st.DiskStat(); n != 0 {
		t.Errorf("%d artifacts left, want 0", n)
	}
	if m := st.Metrics(); m.Evicted != 1 {
		t.Errorf("Evicted = %d, want 1", m.Evicted)
	}
}
