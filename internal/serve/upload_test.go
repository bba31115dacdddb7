package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/campaign"
	"repro/internal/worker"
)

// FuzzLeaseResult posts each input as the body of
// POST /v1/leases/{id}/result for a live lease on one sampled cell: the
// gate between worker uploads and the shared cache. In the body,
// {{worker}} and {{key}} stand for the lease holder's ID and the job's
// key, so the seeds stay valid whatever the nonce and the hash. The
// handler must not panic and answers 200, 400, 409 (an upload from a
// worker that does not hold the lease), 410 or 422. An accepted upload
// delivers exactly one result naming the leased job's benchmark,
// technique and mode (the engine stamps its sweep point on delivery:
// TestEngineStampsPoints), and any other answer delivers nothing. Each
// call moves exactly one of the remote, rejected, worker-failure and
// late-upload counters, and a 400 moves none.
func FuzzLeaseResult(f *testing.F) {
	s := New(Config{})
	f.Cleanup(s.Close)
	handler := s.Handler()
	spec := sampledSpec("fuzz-upload", []string{"gzip"}, 48)
	spec.Techniques = []campaign.Technique{campaign.TechBaseline}
	jobs, err := spec.Jobs()
	if err != nil {
		f.Fatal(err)
	}
	job := jobs[0]
	key, err := campaign.JobKey(&job, spec.Params)
	if err != nil {
		f.Fatal(err)
	}
	counters := func() [4]int64 {
		m := &s.met
		return [4]int64{m.jobsRemote.Load(), m.resultsRejected.Load(), m.workerJobFailures.Load(), m.lateUploads.Load()}
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		d := s.disp
		const id = "fuzz"
		defer d.deregister(id)
		tk := &task{job: &job, key: key, ns: s.shared, params: spec.Params, ctx: context.Background(), outcome: make(chan taskOutcome, 1)}
		// The worker joins before the task is queued, or a slot may take
		// it: while no worker is live, the slots take every job.
		d.mu.Lock()
		d.admitLocked(id, 1)
		d.enqueueLocked(tk, false)
		d.mu.Unlock()
		defer d.abandon(tk) // runs first: a requeued task leaves the queue
		l, leased, err := d.nextLease(context.Background(), worker.LeaseRequest{WorkerID: id, Protocol: worker.ProtocolVersion, WaitMS: 1})
		if err != nil || leased != tk {
			t.Fatalf("lease: %v, %v", leased, err)
		}

		body = bytes.ReplaceAll(body, []byte("{{worker}}"), []byte(id))
		body = bytes.ReplaceAll(body, []byte("{{key}}"), []byte(key))
		before := counters()
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/leases/"+l.id+"/result", bytes.NewReader(body)))
		after := counters()

		var resp worker.ResultResponse
		switch rec.Code {
		case http.StatusOK:
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 with a body that is not a ResultResponse: %v", err)
			}
		case http.StatusBadRequest, http.StatusConflict, http.StatusGone, http.StatusUnprocessableEntity:
		default:
			t.Fatalf("answered %d: %s", rec.Code, rec.Body)
		}
		moved, want := int64(0), int64(1)
		for i := range before {
			moved += after[i] - before[i]
		}
		if rec.Code == http.StatusBadRequest {
			want = 0
		}
		if moved != want {
			t.Fatalf("answered %d and moved the upload counters %v -> %v, want %d in all", rec.Code, before, after, want)
		}
		select {
		case out := <-tk.outcome:
			r := out.res
			switch {
			case !resp.Accepted:
				t.Fatalf("answered %d %+v but delivered %+v", rec.Code, resp, out)
			case out.err != nil || len(tk.outcome) != 0:
				t.Fatalf("accepted, then delivered %+v and %d more", out, len(tk.outcome))
			case r.Bench != job.Bench || r.Tech != job.Tech || (r.Sampled == nil) != (job.Sampling == nil):
				t.Fatalf("accepted a result for %s/%s (sampled %v), leased %s/%s (sampled %v)",
					r.Bench, r.Tech, r.Sampled != nil, job.Bench, job.Tech, job.Sampling != nil)
			}
		default:
			if resp.Accepted {
				t.Fatal("accepted but delivered nothing")
			}
		}
	})
}
