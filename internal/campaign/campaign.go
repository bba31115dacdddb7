// Package campaign is the simulation-campaign engine: it expands a
// declarative specification (benchmarks × techniques × configuration-axis
// sweeps) into a deterministic job set, executes the jobs in campaign
// order on a context-cancellable worker pool, aggregates per-job
// results into a queryable store, and caches completed results on disk
// keyed by a content hash of everything that determines the outcome —
// so re-runs and re-plots of an unchanged campaign are near-instant.
//
// The experiment harness (internal/exp), the CLI drivers (cmd/sdiq,
// cmd/sdiqsim) and the examples are thin views over this engine: they
// build a Spec, hand it to an Engine, and render the ResultSet.
package campaign

import (
	"fmt"
	"strings"
)

// Technique identifies one experimental configuration, in the paper's
// naming. The string form is the canonical identity: it appears in cache
// keys, exports, and CLI flags.
type Technique string

// Techniques of the paper's evaluation.
const (
	// TechBaseline: uncontrolled 80-entry queue (the reference).
	TechBaseline Technique = "baseline"
	// TechNOOP: compiler hints via special NOOPs (section 5.2).
	TechNOOP Technique = "NOOP"
	// TechExtension: compiler hints via instruction tags (section 5.3).
	TechExtension Technique = "Extension"
	// TechImproved: tags plus inter-procedural FU contention analysis.
	TechImproved Technique = "Improved"
	// TechAbella: hardware-adaptive IqRob64 (Abella & González).
	TechAbella Technique = "abella"
)

// AllTechniques lists every technique including the baseline, in the
// paper's figure order.
func AllTechniques() []Technique {
	return []Technique{TechBaseline, TechNOOP, TechExtension, TechImproved, TechAbella}
}

// Valid reports whether t names a known technique.
func (t Technique) Valid() bool {
	switch t {
	case TechBaseline, TechNOOP, TechExtension, TechImproved, TechAbella:
		return true
	}
	return false
}

// ParseTechnique resolves a user-facing name, accepting the canonical
// names case-insensitively plus the CLI shorthands ("noop", "tag",
// "improved").
func ParseTechnique(s string) (Technique, error) {
	switch strings.ToLower(s) {
	case "baseline", "base":
		return TechBaseline, nil
	case "noop":
		return TechNOOP, nil
	case "extension", "tag":
		return TechExtension, nil
	case "improved":
		return TechImproved, nil
	case "abella", "adaptive":
		return TechAbella, nil
	}
	return "", fmt.Errorf("campaign: unknown technique %q", s)
}
