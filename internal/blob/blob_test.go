package blob

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

const key = "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"

// keyN mints a distinct well-formed key per index.
func keyN(i int) string { return fmt.Sprintf("%02x%062x", i%256, i) }

func open(t *testing.T) (*Store, string) {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir, "bin")
	if err != nil {
		t.Fatal(err)
	}
	return s, dir
}

// age sets a blob's mtime d in the past.
func age(t *testing.T, s *Store, k string, d time.Duration) {
	t.Helper()
	mt := time.Now().Add(-d)
	if err := os.Chtimes(s.Path(k), mt, mt); err != nil {
		t.Fatal(err)
	}
}

// TestLayout: a blob lives at <dir>/<key[:2]>/<key>.<ext>, the layout
// stores written by earlier builds use.
func TestLayout(t *testing.T) {
	s, dir := open(t)
	if published, err := s.Write(key, []byte("x")); err != nil || !published {
		t.Fatalf("Write = %v, %v", published, err)
	}
	want := filepath.Join(dir, "01", key+".bin")
	if s.Path(key) != want {
		t.Errorf("Path = %s, want %s", s.Path(key), want)
	}
	if data, err := os.ReadFile(want); err != nil || string(data) != "x" {
		t.Errorf("blob file = %q, %v", data, err)
	}
}

// TestInvalidKeys: anything that is not lowercase hex of sane length
// never reaches the filesystem.
func TestInvalidKeys(t *testing.T) {
	s, dir := open(t)
	for _, k := range []string{
		"", "short", "../../../../etc/passwd", "ABCDEF0123456789",
		"0123456789abcdeg", "0123/6789abcdef0", string(make([]byte, 129)),
	} {
		if ValidKey(k) || s.Path(k) != "" || s.Has(k) || s.Remove(k) {
			t.Errorf("key %q accepted", k)
		}
		if _, err := s.Read(k); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("Read(%q) err = %v, want fs.ErrNotExist", k, err)
		}
		if _, err := s.Open(k); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("Open(%q) err = %v, want fs.ErrNotExist", k, err)
		}
		if _, err := s.Write(k, nil); err == nil {
			t.Errorf("Write(%q) accepted", k)
		}
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("invalid keys left %d entries in the store", len(entries))
	}
}

// TestFirstWriterWins: a second write of a published key, by Write or
// by Temp+Publish, keeps the published bytes and mtime and leaves no
// temp file behind.
func TestFirstWriterWins(t *testing.T) {
	s, _ := open(t)
	if _, err := s.Write(key, []byte("first")); err != nil {
		t.Fatal(err)
	}
	age(t, s, key, time.Hour)
	before, _ := os.Stat(s.Path(key))
	if published, err := s.Write(key, []byte("second")); err != nil || published {
		t.Fatalf("second Write = %v, %v; want not published", published, err)
	}
	tmp, err := s.Temp(key)
	if err != nil {
		t.Fatal(err)
	}
	tmp.WriteString("third")
	if published, err := s.Publish(key, tmp); err != nil || published {
		t.Fatalf("Publish onto a published key = %v, %v; want not published", published, err)
	}
	if data, _ := os.ReadFile(s.Path(key)); string(data) != "first" {
		t.Errorf("blob = %q, want the first writer's bytes", data)
	}
	after, _ := os.Stat(s.Path(key))
	if !after.ModTime().Equal(before.ModTime()) {
		t.Error("a losing writer touched the published blob")
	}
	if files, _ := os.ReadDir(filepath.Dir(s.Path(key))); len(files) != 1 {
		t.Errorf("shard holds %d files, want only the blob", len(files))
	}
}

// TestDiscardLeavesNoTrace: an abandoned temp file is gone and the key
// stays unpublished.
func TestDiscardLeavesNoTrace(t *testing.T) {
	s, _ := open(t)
	tmp, err := s.Temp(key)
	if err != nil {
		t.Fatal(err)
	}
	tmp.WriteString("partial")
	if s.Has(key) {
		t.Fatal("temp file visible as a blob")
	}
	Discard(tmp)
	if files, _ := os.ReadDir(filepath.Dir(s.Path(key))); len(files) != 0 {
		t.Errorf("discarded write left %d files", len(files))
	}
}

// TestReadsRefreshRecency: Open and Read both mark a blob recently
// used, so GC keeps it over a blob written later but not read.
func TestReadsRefreshRecency(t *testing.T) {
	for name, read := range map[string]func(*Store, string) error{
		"Read": func(s *Store, k string) error { _, err := s.Read(k); return err },
		"Open": func(s *Store, k string) error {
			f, err := s.Open(k)
			if err == nil {
				_, err = io.ReadAll(f)
				f.Close()
			}
			return err
		},
	} {
		s, _ := open(t)
		for i := 0; i < 3; i++ {
			if _, err := s.Write(keyN(i), []byte("0123456789")); err != nil {
				t.Fatal(err)
			}
			age(t, s, keyN(i), time.Duration(10-i)*time.Minute)
		}
		if err := read(s, keyN(0)); err != nil {
			t.Fatal(err)
		}
		if n, _, err := s.GC(20); err != nil || n != 1 {
			t.Fatalf("%s: GC = %d, %v; want one eviction", name, n, err)
		}
		if !s.Has(keyN(0)) || s.Has(keyN(1)) || !s.Has(keyN(2)) {
			t.Errorf("%s: GC evicted by write time, not by use", name)
		}
	}
}

// TestGCEvictsOnlyBlobs: the bound counts and evicts published blobs
// only — temp files, other extensions, files outside the shards and a
// store nested under this one are left alone.
func TestGCEvictsOnlyBlobs(t *testing.T) {
	s, dir := open(t)
	for i := 0; i < 4; i++ {
		if _, err := s.Write(keyN(i), bytes.Repeat([]byte{'b'}, 100)); err != nil {
			t.Fatal(err)
		}
		age(t, s, keyN(i), time.Duration(10-i)*time.Minute)
	}
	tmp, err := s.Temp(keyN(9))
	if err != nil {
		t.Fatal(err)
	}
	defer Discard(tmp)
	nested, err := Open(filepath.Join(dir, "tenants", "alice"), "bin")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nested.Write(key, []byte("tenant")); err != nil {
		t.Fatal(err)
	}
	foreign := []string{
		filepath.Join(dir, "README"),
		filepath.Join(dir, "00", keyN(0)+".other"),
		filepath.Join(dir, "ff", keyN(1)+".bin"), // wrong shard
	}
	for _, p := range foreign {
		os.MkdirAll(filepath.Dir(p), 0o755)
		if err := os.WriteFile(p, []byte("foreign"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	if n, b := s.DiskStat(); n != 4 || b != 400 {
		t.Fatalf("DiskStat = %d blobs, %d bytes; want 4, 400", n, b)
	}
	evicted, reclaimed, err := s.GC(250)
	if err != nil || evicted != 2 || reclaimed != 200 {
		t.Fatalf("GC(250) = %d, %d, %v; want the two oldest evicted", evicted, reclaimed, err)
	}
	if s.Has(keyN(0)) || s.Has(keyN(1)) || !s.Has(keyN(2)) || !s.Has(keyN(3)) {
		t.Error("GC evicted out of LRU order")
	}
	if _, _, err := s.GC(1); err != nil {
		t.Fatal(err)
	}
	if n, _ := s.DiskStat(); n != 0 {
		t.Errorf("%d blobs survive GC(1)", n)
	}
	for _, p := range append(foreign, tmp.Name(), nested.Path(key)) {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("GC removed %s, which is not the store's blob", p)
		}
	}
}

// TestNilStore: an empty dir turns the store off, and every method of
// the nil store is safe.
func TestNilStore(t *testing.T) {
	s, err := Open("", "bin")
	if s != nil || err != nil {
		t.Fatalf("Open(\"\") = %v, %v; want nil, nil", s, err)
	}
	if s.Path(key) != "" || s.Has(key) || s.Remove(key) {
		t.Error("nil store claims a blob")
	}
	if _, err := s.Read(key); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("nil Read err = %v", err)
	}
	if n, b := s.DiskStat(); n != 0 || b != 0 {
		t.Errorf("nil DiskStat = %d, %d", n, b)
	}
	if n, _, err := s.GC(1); n != 0 || err != nil {
		t.Errorf("nil GC = %d, %v", n, err)
	}
}

// TestConcurrentWritersReadersAndGC: racing writers of one key, readers
// and a GC that evicts everything never tear a blob: every successful
// read returns the whole content.
func TestConcurrentWritersReadersAndGC(t *testing.T) {
	s, _ := open(t)
	want := bytes.Repeat([]byte("blob"), 4096)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(3)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := s.Write(key, want); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if data, err := s.Read(key); err == nil && !bytes.Equal(data, want) {
					t.Error("read a torn blob")
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, _, err := s.GC(1); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if files, _ := os.ReadDir(filepath.Dir(s.Path(key))); len(files) > 1 {
		t.Errorf("%d files left in the shard, want at most the blob", len(files))
	}
}
