// Package store is the campaign service's durable control plane. A
// campaign's durable state is its spec and its outcome: two whole-file
// records under the state directory,
//
//	campaigns/<id>/meta.json  — submission record (spec, client), written at submit
//	campaigns/<id>/snap.json  — terminal record (error, final status and
//	                            results), written once, when the campaign ends
//
// Both are published by temp file, fsync and rename, so a reader sees
// a whole record or none. Nothing else is needed to recover: a campaign
// with a terminal record comes back from it, and one without re-runs
// its spec, the result cache turning every finished job into a hit.
//
// Older builds also logged every job-state change to a wal.log and
// folded it into snap.json as they went, and recorded no results.
// Their state directories stay readable: a snap.json without done
// marks a campaign that was still running, a clean one without results
// a campaign to re-run, and a leftover wal.log is ignored.
package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/campaign"
)

const (
	metaName = "meta.json"
	snapName = "snap.json"
)

// Meta is the immutable submission record for one campaign — everything
// needed to re-expand its job set after a restart.
type Meta struct {
	ID        string        `json:"id"`
	Client    string        `json:"client,omitempty"`
	Submitted time.Time     `json:"submitted"`
	Jobs      int           `json:"jobs"`
	Spec      campaign.Spec `json:"spec"`
}

// Snapshot is a campaign's terminal record, its whole outcome: the
// campaign-level error, if any, the final status (counters and job
// roster) and the results, nil when no result set was left, as in older
// builds' records, whose roster under "jobs" lands in Status.Jobs. Done
// is false only in a record an older build wrote mid-run. In JSON, Done
// hides Status.Done, which the roster determines.
type Snapshot struct {
	Done     bool      `json:"done,omitempty"`
	Error    string    `json:"error,omitempty"`
	Finished time.Time `json:"finished,omitzero"`
	campaign.Status
	Results []campaign.Result `json:"results"`
}

// Store roots the durable state directory. A nil *Store (from an empty
// dir) disables durability: every method is then a no-op.
type Store struct {
	dir string // <root>/campaigns
}

// Open prepares a state store rooted at dir. An empty dir returns
// (nil, nil): durability off.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, nil
	}
	cdir := filepath.Join(dir, "campaigns")
	if err := os.MkdirAll(cdir, 0o755); err != nil {
		return nil, fmt.Errorf("store: state dir: %w", err)
	}
	return &Store{dir: cdir}, nil
}

func (s *Store) campaignDir(id string) string { return filepath.Join(s.dir, id) }

// Create persists a new campaign's submission record. A failed Create
// leaves no campaign directory behind.
func (s *Store) Create(meta Meta) error {
	if s == nil {
		return nil
	}
	blob, err := json.Marshal(meta)
	if err != nil {
		return fmt.Errorf("store: meta: %w", err)
	}
	dir := s.campaignDir(meta.ID)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: campaign dir: %w", err)
	}
	if err := writeFileSync(filepath.Join(dir, metaName), blob); err != nil {
		os.RemoveAll(dir)
		return fmt.Errorf("store: meta: %w", err)
	}
	return nil
}

// Finish publishes a campaign's terminal record. It never creates the
// campaign directory: on a campaign that was removed, or never created,
// it fails and writes nothing.
func (s *Store) Finish(id string, snap Snapshot) error {
	if s == nil {
		return nil
	}
	blob, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("store: terminal record: %w", err)
	}
	if err := writeFileSync(filepath.Join(s.campaignDir(id), snapName), blob); err != nil {
		return fmt.Errorf("store: terminal record: %w", err)
	}
	return nil
}

// Remove deletes a campaign's durable state (registry eviction, DELETE).
func (s *Store) Remove(id string) error {
	if s == nil {
		return nil
	}
	return os.RemoveAll(s.campaignDir(id))
}

// Recovered is one campaign read back from disk: its submission record
// and its terminal record, whose Done is false if the campaign was
// still running.
type Recovered struct {
	Meta Meta
	Snap Snapshot
}

// Recover reads every campaign directory under the store. A campaign
// whose records do not decode, or whose meta.json names another ID, is
// skipped; the problems are joined into the returned error while intact
// campaigns still come back. Results are in campaign ID order.
func (s *Store) Recover() ([]Recovered, error) {
	if s == nil {
		return nil, nil
	}
	// ReadDir sorts by name, and a campaign's ID is its directory name.
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("store: recover: %w", err)
	}
	var out []Recovered
	var errs []error
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		rec, err := s.load(e.Name())
		if err != nil {
			errs = append(errs, fmt.Errorf("campaign %s: %w", e.Name(), err))
			continue
		}
		out = append(out, rec)
	}
	return out, errors.Join(errs...)
}

func (s *Store) load(id string) (Recovered, error) {
	dir := s.campaignDir(id)
	var rec Recovered
	if err := readJSON(filepath.Join(dir, metaName), &rec.Meta); err != nil {
		return Recovered{}, fmt.Errorf("meta: %w", err)
	}
	if rec.Meta.ID != id {
		return Recovered{}, fmt.Errorf("meta names %q", rec.Meta.ID)
	}
	// No terminal record: the campaign was still running.
	if err := readJSON(filepath.Join(dir, snapName), &rec.Snap); err != nil && !errors.Is(err, os.ErrNotExist) {
		return Recovered{}, fmt.Errorf("terminal record: %w", err)
	}
	return rec, nil
}

func readJSON(path string, v any) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(blob, v)
}

// writeFileSync publishes blob at path via temp-file + fsync + rename,
// then fsyncs the directory so the rename itself survives a crash. The
// temp file lives in path's directory, so a missing directory fails the
// write instead of creating one.
func writeFileSync(path string, blob []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(blob)
	serr := tmp.Sync()
	cerr := tmp.Close()
	if werr != nil || serr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return errors.Join(werr, serr, cerr)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}
