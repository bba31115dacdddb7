package campaign

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
)

// TestCacheHitServesIdenticalResults: the second run of an unchanged
// spec must execute nothing, serve every job from disk, and export
// byte-identically to the first run.
func TestCacheHitServesIdenticalResults(t *testing.T) {
	dir := t.TempDir()
	spec := smallSpec()
	e := &Engine{Workers: 4, CacheDir: dir}

	first, err := e.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if first.Executed != 4 || first.CacheHits != 0 {
		t.Fatalf("first run: executed=%d hits=%d", first.Executed, first.CacheHits)
	}

	second, err := e.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if second.Executed != 0 || second.CacheHits != 4 {
		t.Fatalf("second run: executed=%d hits=%d, want all served from cache",
			second.Executed, second.CacheHits)
	}
	for i := range second.Results {
		if !second.Results[i].Cached {
			t.Errorf("result %d not marked cached", i)
		}
		if second.Results[i].Stats != first.Results[i].Stats {
			t.Errorf("result %d stats differ from the run that populated the cache", i)
		}
	}

	var a, b bytes.Buffer
	if err := first.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := second.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("cached re-run does not export byte-identically")
	}
	var ac, bc bytes.Buffer
	if err := first.WriteCSV(&ac); err != nil {
		t.Fatal(err)
	}
	if err := second.WriteCSV(&bc); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ac.Bytes(), bc.Bytes()) {
		t.Error("cached re-run CSV differs")
	}
}

// TestCacheKeyedByIdentity: changing anything that determines the
// outcome — here the budget — must miss the old entries.
func TestCacheKeyedByIdentity(t *testing.T) {
	dir := t.TempDir()
	spec := smallSpec()
	spec.Benchmarks = []string{"gzip"}
	spec.Techniques = []Technique{TechBaseline}
	e := &Engine{CacheDir: dir}
	if _, err := e.Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	spec.Budget += 1000
	rs, err := e.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if rs.CacheHits != 0 || rs.Executed != 1 {
		t.Errorf("changed budget hit the cache: executed=%d hits=%d", rs.Executed, rs.CacheHits)
	}
}

// TestCacheCorruptEntryIsAMiss: a torn or garbage entry must be treated
// as a miss and re-simulated, never surfaced as an error or bad data.
func TestCacheCorruptEntryIsAMiss(t *testing.T) {
	dir := t.TempDir()
	spec := smallSpec()
	spec.Benchmarks = []string{"gzip"}
	spec.Techniques = []Technique{TechBaseline}
	e := &Engine{CacheDir: dir}
	first, err := e.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*", "*.json"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("cache entries = %v, %v", entries, err)
	}
	if err := os.WriteFile(entries[0], []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	second, err := e.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if second.Executed != 1 || second.CacheHits != 0 {
		t.Errorf("corrupt entry not treated as a miss: executed=%d hits=%d",
			second.Executed, second.CacheHits)
	}
	if second.Results[0].Stats != first.Results[0].Stats {
		t.Error("re-simulated result diverges")
	}
	// The re-simulated result replaced the corrupt entry: the next run
	// is served from the cache.
	third, err := e.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if third.Executed != 0 || third.CacheHits != 1 {
		t.Errorf("corrupt entry never replaced: executed=%d hits=%d", third.Executed, third.CacheHits)
	}
}

// TestCacheSharedAcrossSpecs: a sweep point whose derived configuration
// equals an already-cached base run reuses it — the cache is keyed by
// content, not by campaign.
func TestCacheSharedAcrossSpecs(t *testing.T) {
	dir := t.TempDir()
	base := smallSpec()
	base.Benchmarks = []string{"gzip"}
	base.Techniques = []Technique{TechBaseline}
	e := &Engine{CacheDir: dir}
	if _, err := e.Run(context.Background(), base); err != nil {
		t.Fatal(err)
	}
	sweep := base
	sweep.Axes = []Axis{{Name: "iq.entries", Values: []int{80}}} // equals the default
	rs, err := e.Run(context.Background(), sweep)
	if err != nil {
		t.Fatal(err)
	}
	if rs.CacheHits != 1 {
		t.Errorf("identical derived config missed the cache: executed=%d hits=%d",
			rs.Executed, rs.CacheHits)
	}
}
