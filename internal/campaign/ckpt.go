package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/sample"
)

// ckptSchema versions the checkpoint key layout. Bump it whenever the
// keyed slice or the artifact semantics change incompatibly; old
// artifacts then age out as unreferenced keys instead of being resumed
// wrongly.
const ckptSchema = 1

// warmClass names the slice of a technique that the functional warming
// stream can observe: the instrumentation mode of the program it
// executes. Techniques in the same class run byte-identical programs
// with identical hint evolution, so they share a warming stream — and
// therefore a checkpoint artifact:
//
//   - "plain": uninstrumented binaries (baseline, abella);
//   - "noop": hint NOOPs inserted (distinct PCs and stream);
//   - "tag"/"tag-improved": instruction tags — same PCs, but the hint
//     values differ between the two passes, and the active hint at a
//     window start is part of the stored resume state, so they key
//     separately.
func (t Technique) warmClass() string {
	opt, ok := t.instrumentOptions()
	switch {
	case !ok:
		return "plain"
	case opt.Mode == core.ModeNOOP:
		return "noop"
	case opt.Improved:
		return "tag-improved"
	default:
		return "tag"
	}
}

// CheckpointKey derives the content address of the checkpoint artifact
// a sampled job can generate or resume from: a SHA-256 over the
// benchmark identity (name + seed + budget), the warming-relevant
// config slice — cache geometry, predictor configuration and the
// technique's instrumentation class, with the IQ/power axes a sweep
// varies deliberately excluded — and the resolved sampling regime.
// Everything excluded from the key is, by the sampled engine's
// fork-per-window construction, unable to influence the stored state;
// everything included invalidates the artifact when it changes.
//
// Exact (unsampled) jobs have no artifact: the key is "" and nil error.
func CheckpointKey(job *Job) (string, error) {
	if job.Sampling == nil {
		return "", nil
	}
	ec := job.Sampling.engineConfig().WithDefaults()
	blob, err := json.Marshal(struct {
		Schema       int
		Bench        string
		Seed         int64
		Budget       int64
		Class        string
		Caches       cache.HierarchyConfig
		Bpred        bpred.Config
		Window       int64
		Period       int64
		Warmup       int64
		DetailWarmup int64
		// The sampled engine's fixed jitter and its always-on
		// fast-forward warming, hashed at the values they had as regime
		// knobs so that every key stays what it was.
		JitterPct       int
		PureFastForward bool
	}{
		Schema:          ckptSchema,
		Bench:           job.Bench,
		Seed:            job.Seed,
		Budget:          job.Budget,
		Class:           job.Tech.warmClass(),
		Caches:          job.Config.Caches.WithDefaults(),
		Bpred:           job.Config.Bpred.WithDefaults(),
		Window:          ec.WindowInsts,
		Period:          ec.PeriodInsts,
		Warmup:          ec.WarmupInsts,
		DetailWarmup:    ec.DetailWarmupInsts,
		JitterPct:       sample.JitterPct,
		PureFastForward: false,
	})
	if err != nil {
		return "", fmt.Errorf("campaign: hashing checkpoint identity of %s: %w", job.ID(), err)
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:]), nil
}
