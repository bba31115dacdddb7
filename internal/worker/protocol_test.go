// Protocol conformance: every lease/heartbeat/result wire message is
// pinned byte-for-byte against a committed golden JSON fixture, so any
// drift in the wire format — field renames, type changes, a sim.Config
// reshape leaking into leases — fails here before it strands a mixed
// fleet. Regenerate after an intentional protocol change with:
//
//	go test ./internal/worker -run TestProtocolGolden -update
package worker

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/campaign"
)

var update = flag.Bool("update", false, "rewrite the golden fixtures from the current wire types")

// fixtureJob is the deterministic job every fixture derives from: the
// paper's default spec narrowed to one cell.
func fixtureJob(t *testing.T) (campaign.Job, campaign.Spec) {
	t.Helper()
	spec := campaign.DefaultSpec(8_000)
	spec.Benchmarks = []string{"gzip"}
	spec.Techniques = []campaign.Technique{campaign.TechExtension}
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 {
		t.Fatalf("fixture spec expands to %d jobs, want 1", len(jobs))
	}
	return jobs[0], spec
}

// checkGolden pins got (indented JSON of msg) against testdata/name and
// verifies the bytes decode back into an equal message (round-trip).
func checkGolden(t *testing.T, name string, msg any) {
	t.Helper()
	got, err := json.MarshalIndent(msg, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
	} else {
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to create the golden)", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s drifted from its golden.\n--- got ---\n%s--- want ---\n%s"+
				"(intentional protocol change? regenerate with: go test ./internal/worker -run TestProtocolGolden -update)",
				name, got, want)
		}
	}
	// Round-trip: the golden bytes must decode into an equal message.
	back := reflect.New(reflect.TypeOf(msg)).Interface()
	if err := json.Unmarshal(got, back); err != nil {
		t.Fatalf("%s does not round-trip: %v", name, err)
	}
	if got2 := reflect.ValueOf(back).Elem().Interface(); !reflect.DeepEqual(got2, msg) {
		t.Errorf("%s round-trip mismatch:\ndecoded %+v\noriginal %+v", name, got2, msg)
	}
}

// TestProtocolGoldenMessages pins every wire message of the
// lease/heartbeat/result protocol.
func TestProtocolGoldenMessages(t *testing.T) {
	job, spec := fixtureJob(t)
	key, err := campaign.JobKey(&job, spec.Params)
	if err != nil {
		t.Fatal(err)
	}

	checkGolden(t, "lease_request.json", LeaseRequest{
		WorkerID: "w0003", Capacity: 4, Protocol: ProtocolVersion, WaitMS: 7500,
	})
	checkGolden(t, "lease.json", Lease{
		ID: "l000042", Key: key, Attempt: 2, DeadlineMS: 15000, Namespace: "alice",
		Job: JobSpecOf(&job, spec.Params),
	})
	checkGolden(t, "heartbeat.json", Heartbeat{WorkerID: "w0003"})
	checkGolden(t, "heartbeat_response.json", HeartbeatResponse{
		Cancel: false, DeadlineMS: 15000,
	})
	res := campaign.Result{
		Bench: job.Bench, Tech: job.Tech, Point: job.Point,
		CompileMS: 1.25, GenMS: 0.5, Hints: 17,
	}
	res.Stats.CommittedReal = 8_000
	checkGolden(t, "result_upload.json", ResultUpload{
		WorkerID: "w0003", Key: key, Result: &res,
	})
	checkGolden(t, "result_upload_error.json", ResultUpload{
		WorkerID: "w0003", Key: key, Error: "gzip/ext: something broke",
	})
	checkGolden(t, "result_response.json", ResultResponse{Accepted: true})
}

// TestJobSpecRoundTrip: the wire job must rebuild the exact engine job,
// and the rebuilt job must derive the same JobKey the lease carries —
// the identity the whole validation chain hangs on.
func TestJobSpecRoundTrip(t *testing.T) {
	job, spec := fixtureJob(t)
	key, err := campaign.JobKey(&job, spec.Params)
	if err != nil {
		t.Fatal(err)
	}
	ws := JobSpecOf(&job, spec.Params)
	blob, err := json.Marshal(ws)
	if err != nil {
		t.Fatal(err)
	}
	var back JobSpec
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	rebuilt := back.Job()
	if !reflect.DeepEqual(rebuilt, job) {
		t.Fatalf("wire round-trip changed the job:\nwire %+v\norig %+v", rebuilt, job)
	}
	key2, err := campaign.JobKey(&rebuilt, back.Params)
	if err != nil {
		t.Fatal(err)
	}
	if key2 != key {
		t.Errorf("rebuilt job derives key %.12s, original %.12s — remote validation would reject every lease", key2, key)
	}
}

// TestJobSpecSampledRoundTrip covers the sampled-job wire path: the
// sampling regime must survive and keep its (distinct) JobKey.
func TestJobSpecSampledRoundTrip(t *testing.T) {
	job, spec := fixtureJob(t)
	exactKey, err := campaign.JobKey(&job, spec.Params)
	if err != nil {
		t.Fatal(err)
	}
	sampling := campaign.DefaultSampling()
	job.Sampling = &sampling
	ws := JobSpecOf(&job, spec.Params)
	blob, err := json.Marshal(ws)
	if err != nil {
		t.Fatal(err)
	}
	var back JobSpec
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	rebuilt := back.Job()
	if !reflect.DeepEqual(rebuilt, job) {
		t.Fatalf("sampled wire round-trip changed the job")
	}
	key, err := campaign.JobKey(&rebuilt, back.Params)
	if err != nil {
		t.Fatal(err)
	}
	if key == exactKey {
		t.Error("sampled job shares the exact job's key after the wire round-trip")
	}
}
