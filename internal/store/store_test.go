package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/sim"
)

func testMeta(id string) Meta {
	spec := campaign.DefaultSpec(4_000)
	spec.Name = "store-test"
	spec.Benchmarks = []string{"gzip"}
	spec.Techniques = []campaign.Technique{campaign.TechBaseline, campaign.TechNOOP}
	return Meta{
		ID:        id,
		Client:    "tester",
		Submitted: time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC),
		Jobs:      2,
		Spec:      spec,
	}
}

func js(id string, state campaign.JobState) campaign.JobStatus {
	return campaign.JobStatus{ID: id, Bench: "gzip", State: state}
}

// testSnap is a failed campaign's terminal record: its final status,
// counters included, and the result of the job that finished. Its
// Status.Done stays 0: in JSON the record's done flag hides it.
func testSnap() Snapshot {
	done := js("gzip/baseline", campaign.JobDone)
	done.IPC = 1.25
	failed := js("gzip/noop", campaign.JobFailed)
	failed.Error = "boom"
	return Snapshot{
		Done:     true,
		Error:    "boom",
		Finished: time.Date(2026, 8, 8, 13, 0, 0, 0, time.UTC),
		Status: campaign.Status{
			Total:          2,
			Failed:         1,
			Executed:       1,
			CommittedInsts: 4_000,
			Jobs:           []campaign.JobStatus{done, failed},
		},
		Results: []campaign.Result{{
			Bench: "gzip",
			Tech:  campaign.TechBaseline,
			Stats: sim.Stats{Cycles: 3_200, CommittedReal: 4_000},
		}},
	}
}

func openStore(t *testing.T, dir string) *Store {
	t.Helper()
	st, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return st
}

func recoverOne(t *testing.T, st *Store) Recovered {
	t.Helper()
	recs, err := st.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if len(recs) != 1 {
		t.Fatalf("recovered %d campaigns, want 1", len(recs))
	}
	return recs[0]
}

// campaignFiles lists a campaign directory's file names.
func campaignFiles(t *testing.T, dir, id string) []string {
	t.Helper()
	ents, err := os.ReadDir(filepath.Join(dir, "campaigns", id))
	if err != nil {
		t.Fatalf("read campaign dir: %v", err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

// TestRoundTrip is the basic contract: a campaign without a terminal
// record recovers as running with its spec intact, and once finished it
// recovers with the record Finish wrote: error, counters, the roster in
// order and the results.
func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	if err := st.Create(testMeta("c0001")); err != nil {
		t.Fatalf("Create: %v", err)
	}

	rec := recoverOne(t, openStore(t, dir))
	if rec.Meta.ID != "c0001" || rec.Meta.Client != "tester" || rec.Meta.Jobs != 2 {
		t.Fatalf("meta mismatch: %+v", rec.Meta)
	}
	jobs, err := rec.Meta.Spec.Jobs()
	if err != nil {
		t.Fatalf("recovered spec does not expand: %v", err)
	}
	if len(jobs) != 2 {
		t.Fatalf("recovered spec expands to %d jobs, want 2", len(jobs))
	}
	if rec.Snap.Done || len(rec.Snap.Jobs) != 0 {
		t.Fatalf("unfinished campaign recovered with a terminal record: %+v", rec.Snap)
	}

	if err := st.Finish("c0001", testSnap()); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	rec = recoverOne(t, openStore(t, dir))
	if !reflect.DeepEqual(rec.Snap, testSnap()) {
		t.Fatalf("terminal record round-tripped wrong:\n got %+v\nwant %+v", rec.Snap, testSnap())
	}
}

// TestDoneRecordAndCompaction: a finished campaign's durable state is
// exactly its submission record and its terminal record — no log — and
// it recovers from them alone.
func TestDoneRecordAndCompaction(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	if err := st.Create(testMeta("c0001")); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if got := campaignFiles(t, dir, "c0001"); !slices.Equal(got, []string{metaName}) {
		t.Fatalf("after Create the campaign holds %v, want only %s", got, metaName)
	}
	fin := time.Date(2026, 8, 8, 13, 0, 0, 0, time.UTC)
	if err := st.Finish("c0001", Snapshot{Done: true, Error: "boom", Finished: fin}); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if got := campaignFiles(t, dir, "c0001"); !slices.Equal(got, []string{metaName, snapName}) {
		t.Fatalf("after Finish the campaign holds %v, want %s and %s", got, metaName, snapName)
	}
	rec := recoverOne(t, openStore(t, dir))
	if !rec.Snap.Done || rec.Snap.Error != "boom" || !rec.Snap.Finished.Equal(fin) {
		t.Fatalf("done state lost: %+v", rec.Snap)
	}
}

// TestFinishAfterRemove: a terminal record that lands after DELETE or
// TTL eviction removed the campaign fails and creates nothing, so no
// directory without a meta.json is left behind.
func TestFinishAfterRemove(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	if err := st.Create(testMeta("c0001")); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := st.Remove("c0001"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	for _, id := range []string{"c0001", "c0002"} { // removed, never created
		if err := st.Finish(id, testSnap()); err == nil {
			t.Errorf("Finish(%s) on a missing campaign succeeded", id)
		}
	}
	ents, err := os.ReadDir(filepath.Join(dir, "campaigns"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("Finish on missing campaigns left %d entries behind", len(ents))
	}
}

// TestRemove deletes all durable state for a campaign.
func TestRemove(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	if err := st.Create(testMeta("c0001")); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := st.Remove("c0001"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	recs, err := st.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if len(recs) != 0 {
		t.Fatalf("campaign survived Remove: %+v", recs)
	}
}

// TestNilStoreAndLog: durability off means every call is a safe no-op.
func TestNilStoreAndLog(t *testing.T) {
	st, err := Open("")
	if err != nil || st != nil {
		t.Fatalf("Open(\"\") = %v, %v; want nil, nil", st, err)
	}
	if err := st.Create(testMeta("c0001")); err != nil {
		t.Fatalf("nil store Create: %v", err)
	}
	if err := st.Finish("c0001", testSnap()); err != nil {
		t.Fatalf("nil store Finish: %v", err)
	}
	recs, err := st.Recover()
	if err != nil || recs != nil {
		t.Fatalf("nil store Recover = %v, %v; want nil, nil", recs, err)
	}
	if err := st.Remove("c0001"); err != nil {
		t.Fatalf("nil store Remove: %v", err)
	}
}

// TestCorruptCampaignSkipped: one unreadable campaign doesn't poison
// recovery of its healthy neighbours.
func TestCorruptCampaignSkipped(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	if err := st.Create(testMeta("c0001")); err != nil {
		t.Fatalf("Create: %v", err)
	}
	bad := filepath.Join(dir, "campaigns", "c0002")
	if err := os.MkdirAll(bad, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(bad, metaName), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	recs, err := openStore(t, dir).Recover()
	if err == nil {
		t.Fatalf("corrupt campaign produced no error")
	}
	if len(recs) != 1 || recs[0].Meta.ID != "c0001" {
		t.Fatalf("healthy campaign lost alongside corrupt one: %+v", recs)
	}
}

// FuzzRecover writes fuzzed bytes as campaign c0002's meta.json and,
// when withSnap is set, its snap.json, next to an intact finished
// campaign c0001, then recovers. Recover must not panic; c0002 comes
// back exactly when both records decode and its meta.json names c0002,
// and is otherwise skipped with an error; c0001 always comes back
// unchanged.
func FuzzRecover(f *testing.F) {
	meta, _ := json.Marshal(testMeta("c0002"))
	other, _ := json.Marshal(testMeta("c0001"))
	snap, _ := json.Marshal(testSnap())
	f.Add(meta, snap, true)
	f.Add(meta, []byte(nil), false)
	f.Add(meta, []byte(`{"last_seq":2,"jobs":[{"id":"gzip/baseline","state":"done"}]}`), true)
	f.Add(other, snap, true)
	f.Add(meta[:len(meta)/2], snap, true)
	f.Add(meta, snap[:len(snap)/2], true)

	// The intact campaign is written through the store once; each input
	// gets a copy of its bytes, so no input pays for an fsync.
	wantMeta, wantSnap := testMeta("c0001"), testSnap()
	tmpl := f.TempDir()
	tst, err := Open(tmpl)
	if err != nil {
		f.Fatal(err)
	}
	if err := tst.Create(wantMeta); err != nil {
		f.Fatal(err)
	}
	if err := tst.Finish("c0001", wantSnap); err != nil {
		f.Fatal(err)
	}
	intact := map[string][]byte{}
	for _, name := range []string{metaName, snapName} {
		if intact[name], err = os.ReadFile(filepath.Join(tmpl, "campaigns", "c0001", name)); err != nil {
			f.Fatal(err)
		}
	}

	f.Fuzz(func(t *testing.T, meta, snap []byte, withSnap bool) {
		dir := t.TempDir()
		files := map[string][]byte{
			"c0001/" + metaName: intact[metaName],
			"c0001/" + snapName: intact[snapName],
			"c0002/" + metaName: meta,
		}
		if withSnap {
			files["c0002/"+snapName] = snap
		}
		for name, blob := range files {
			path := filepath.Join(dir, "campaigns", name)
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, blob, 0o644); err != nil {
				t.Fatal(err)
			}
		}

		recs, err := openStore(t, dir).Recover()
		if len(recs) == 0 || recs[0].Meta.ID != "c0001" {
			t.Fatalf("intact campaign lost: %+v (err %v)", recs, err)
		}
		got, _ := json.Marshal(recs[0].Meta)
		want, _ := json.Marshal(wantMeta)
		if string(got) != string(want) || !reflect.DeepEqual(recs[0].Snap, wantSnap) {
			t.Fatalf("intact campaign changed:\n got %+v\nwant %+v %+v", recs[0], wantMeta, wantSnap)
		}

		var m Meta
		var sn Snapshot
		decodes := json.Unmarshal(meta, &m) == nil && m.ID == "c0002" &&
			(!withSnap || json.Unmarshal(snap, &sn) == nil)
		switch {
		case decodes && (len(recs) != 2 || recs[1].Meta.ID != "c0002" || err != nil):
			t.Fatalf("decodable campaign not recovered: %+v (err %v)", recs, err)
		case !decodes && len(recs) != 1:
			t.Fatalf("undecodable campaign recovered: %+v", recs[1:])
		case !decodes && err == nil:
			t.Fatal("undecodable campaign skipped without an error")
		}
	})
}
