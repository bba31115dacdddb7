package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/blob"
	"repro/internal/power"
)

// cacheSchema versions the cached-result format; bump it when Result or
// the simulator's statistics change shape or meaning, which invalidates
// every prior entry at once.
const cacheSchema = 1

// JobKey returns the content hash that identifies a job's result: a
// SHA-256 over everything the outcome depends on — benchmark, technique,
// the fully-derived simulator configuration, budget, seed, the sampling
// regime (when sampled), and the power parameters the campaign's figures
// will be computed with. The sweep point is deliberately absent: it is
// already folded into the derived configuration, so a sweep cell and a
// base run with equal configurations share one cache entry. The sampling
// field is omitted entirely for exact jobs, so exact keys are unchanged
// from before sampled mode existed and pre-existing caches stay valid.
func JobKey(job *Job, params power.Params) (string, error) {
	cfg := job.Config
	cfg.Probe = nil // runtime attachment, not identity
	raw, err := json.Marshal(struct {
		Schema   int
		Bench    string
		Tech     Technique
		Config   any
		Budget   int64
		Seed     int64
		Params   power.Params
		Sampling *Sampling `json:",omitempty"`
	}{cacheSchema, job.Bench, job.Tech, cfg, job.Budget, job.Seed, params, job.Sampling})
	if err != nil {
		return "", fmt.Errorf("campaign: hashing job %s: %w", job.ID(), err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), nil
}

// Cache is a result cache directory: one JSON-encoded Result per
// JobKey, in a blob.Store. The engine opens one per run (CacheDir), and
// drivers that manage results by JobKey themselves (the remote worker's
// scratch cache) and the service's GC hold their own handles. A nil
// *Cache (from an empty dir) is safe to use and never hits.
type Cache struct {
	blob *blob.Store
}

// OpenCache opens (creating if needed) a result cache at dir. An empty
// dir returns a nil Cache whose Get always misses and Put discards.
func OpenCache(dir string) (*Cache, error) {
	b, err := blob.Open(dir, "json")
	if err != nil {
		return nil, fmt.Errorf("campaign: cache dir: %w", err)
	}
	if b == nil {
		return nil, nil
	}
	return &Cache{blob: b}, nil
}

// Get loads the cached result for a JobKey; ok is false on a miss or a
// corrupt entry. Hits come back with Cached set and count as a use for
// GC. A missing or unreadable entry is a miss, never an error: the
// cache is an accelerator, not a source of truth.
func (c *Cache) Get(key string) (Result, bool) {
	if c == nil {
		return Result{}, false
	}
	raw, err := c.blob.Read(key)
	if err != nil {
		return Result{}, false
	}
	var res Result
	if err := json.Unmarshal(raw, &res); err != nil {
		// The first writer wins, so a torn entry left in place would
		// shadow every re-simulated result: drop it.
		c.blob.Remove(key)
		return Result{}, false
	}
	res.Cached = true
	return res, true
}

// Put stores a result under a JobKey, atomically, so concurrent
// campaigns over the same directory never observe torn entries; an
// entry already present is kept. Errors are the caller's to ignore: a
// failed write only costs a future re-simulation.
func (c *Cache) Put(key string, res Result) error {
	if c == nil {
		return nil
	}
	raw, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = c.blob.Write(key, raw)
	return err
}

// GC bounds the cache directory to maxBytes by evicting entries least
// recently used first. Eviction is an accelerator trade, never a
// correctness event: an evicted result simply re-simulates on its next
// request. Returns how many entries were evicted and how many bytes
// they held. A nil cache or non-positive bound is a no-op.
func (c *Cache) GC(maxBytes int64) (evicted int, reclaimed int64, err error) {
	if c == nil {
		return 0, 0, nil
	}
	return c.blob.GC(maxBytes)
}
