package main

import (
	"context"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/campaign"
	"repro/internal/sim"
)

//go:embed refs/*.json
var refFiles embed.FS

// reference is one workload's stored expectation at full size: the
// digest of every cell it can deliver and, for the sampled sweep, each
// cell's exact-mode IPC — the accuracy yardstick, exact mode being the
// more detailed model.
type reference struct {
	Workload string             `json:"workload"`
	Budget   int64              `json:"budget"`
	Cells    map[string]string  `json:"cells"`
	ExactIPC map[string]float64 `json:"exact_ipc,omitempty"`
}

// loadReference reads a workload's stored reference and checks it was
// made at the budget the workload runs.
func loadReference(name string, budget int64) (*reference, error) {
	blob, err := refFiles.ReadFile("refs/" + name + ".json")
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	var ref reference
	if err := json.Unmarshal(blob, &ref); err != nil {
		return nil, fmt.Errorf("reference %s: %w", name, err)
	}
	if ref.Budget != budget {
		return nil, fmt.Errorf("reference %s was made at budget %d, the workload runs %d: regenerate it", name, ref.Budget, budget)
	}
	return &ref, nil
}

// cellID names a result's cell — benchmark/technique/point, as job IDs
// do.
func cellID(r *campaign.Result) string {
	return (&campaign.Job{Bench: r.Bench, Tech: r.Tech, Point: r.Point}).ID()
}

// cellDigest hashes everything a simulation determines: the cell, its
// full statistics, the hint count and the sampling metadata. The
// wall-clock fields (GenMS, CompileMS, StartedAt, FinishedAt) are left
// out, so a simulation digests the same however and whenever it ran.
func cellDigest(r *campaign.Result) string {
	blob, err := json.Marshal(struct {
		Cell    string
		Stats   sim.Stats
		Hints   int
		Sampled *campaign.SampledMeta
	}{cellID(r), r.Stats, r.Hints, r.Sampled})
	if err != nil {
		return "undigestable: " + err.Error()
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// verifier checks delivered cells against the stored reference (nil
// when none applies) and folds every distinct cell into one digest.
type verifier struct {
	ref        *reference
	seen       map[string]string // cell ID → digest of its first delivery
	mismatches []string
}

func newVerifier(ref *reference) *verifier {
	return &verifier{ref: ref, seen: map[string]string{}}
}

// check verifies one delivered cell: its digest must equal the stored
// one, and a cell delivered again must repeat its first delivery.
func (v *verifier) check(r *campaign.Result) bool {
	id, d := cellID(r), cellDigest(r)
	ok := v.ref == nil || v.ref.Cells[id] == d
	if prev, dup := v.seen[id]; !dup {
		v.seen[id] = d
	} else if prev != d {
		ok = false
	}
	if !ok {
		v.mismatches = append(v.mismatches, id)
	}
	return ok
}

// digest folds the distinct cells' digests, in cell order, into one. It
// is printed on every run, so two builds can be compared on any seed.
func (v *verifier) digest() string {
	h := sha256.New()
	for _, id := range sortedKeys(v.seen) {
		fmt.Fprintf(h, "%s %s\n", id, v.seen[id])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// referenceOf digests every cell of a result set.
func referenceOf(name string, budget int64, rs *campaign.ResultSet) *reference {
	ref := &reference{Workload: name, Budget: budget, Cells: map[string]string{}}
	for i := range rs.Results {
		ref.Cells[cellID(&rs.Results[i])] = cellDigest(&rs.Results[i])
	}
	return ref
}

// regenerate recomputes the stored references at full size and writes
// them to dir: the figure grid; the sweep, plus its exact-mode IPCs;
// and service_mix's whole cell pool — each on a local engine. A result
// is the same bytes however it ran (solo or lockstep, local or leased),
// so these digests hold on every path the benchmark drives.
func regenerate(ctx context.Context, dir string, slots int) error {
	z := &fullSize
	exact := &campaign.Engine{Workers: slots}
	lockstep := &campaign.Engine{Workers: slots, Lockstep: true}
	run := func(eng *campaign.Engine, spec campaign.Spec) (*campaign.ResultSet, error) {
		fmt.Fprintf(os.Stderr, "sdiqbench: regenerating %s\n", spec.Name)
		rs, err := eng.Run(ctx, spec)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.Name, err)
		}
		return rs, nil
	}

	figure, err := run(exact, z.figureSpec(nil))
	if err != nil {
		return err
	}
	sweepSpec := z.sweepSpec(nil)
	sweep, err := run(lockstep, sweepSpec)
	if err != nil {
		return err
	}
	exactSpec := sweepSpec
	exactSpec.Name, exactSpec.Sampling = "sweep-exact", nil
	sweepExact, err := run(exact, exactSpec)
	if err != nil {
		return err
	}
	pool, err := run(lockstep, z.poolSpec())
	if err != nil {
		return err
	}

	sweepRef := referenceOf("sweep_sampled", z.sweepBudget, sweep)
	sweepRef.ExactIPC = map[string]float64{}
	for i := range sweepExact.Results {
		r := &sweepExact.Results[i]
		sweepRef.ExactIPC[cellID(r)] = r.Stats.IPC()
	}
	for _, ref := range []*reference{
		referenceOf("figure_suite", z.figureBudget, figure),
		sweepRef,
		referenceOf("service_mix", z.serviceBudget, pool),
	} {
		blob, err := json.MarshalIndent(ref, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, ref.Workload+".json"), append(blob, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}
