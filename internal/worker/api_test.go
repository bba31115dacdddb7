package worker

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestAPIMappings: against a scripted server, a 404 lease poll is
// ErrUnknownWorker, a 204 one is no lease, a 410 heartbeat or upload is
// ErrLeaseGone, and an artifact request names its lease.
func TestAPIMappings(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/leases", func(w http.ResponseWriter, r *http.Request) {
		var req LeaseRequest
		_ = json.NewDecoder(r.Body).Decode(&req)
		switch req.WorkerID {
		case "forgotten":
			w.WriteHeader(http.StatusNotFound)
			_, _ = w.Write([]byte(`{"error": "unknown worker \"forgotten\""}`))
		case "idle":
			w.WriteHeader(http.StatusNoContent)
		default:
			_ = json.NewEncoder(w).Encode(Lease{ID: "l1", Key: "k1"})
		}
	})
	gone := func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusGone) }
	mux.HandleFunc("POST /v1/leases/{id}/heartbeat", gone)
	mux.HandleFunc("POST /v1/leases/{id}/result", gone)
	mux.HandleFunc("/v1/checkpoints/{key}", func(w http.ResponseWriter, r *http.Request) {
		if r.PathValue("key") != "abc" || r.URL.Query().Get("lease") != "l1" {
			w.WriteHeader(http.StatusForbidden)
			return
		}
		if r.Method == http.MethodPut {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		_, _ = w.Write([]byte("artifact"))
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	api := NewAPI(ts.URL)
	ctx := context.Background()

	if _, ok, err := api.Lease(ctx, LeaseRequest{WorkerID: "forgotten"}); ok || !errors.Is(err, ErrUnknownWorker) {
		t.Errorf("lease poll answered 404: ok %v, err %v; want ErrUnknownWorker", ok, err)
	}
	if _, ok, err := api.Lease(ctx, LeaseRequest{WorkerID: "idle"}); ok || err != nil {
		t.Errorf("lease poll answered 204: ok %v, err %v; want no lease and no error", ok, err)
	}
	if l, ok, err := api.Lease(ctx, LeaseRequest{WorkerID: "w1"}); !ok || err != nil || l.ID != "l1" {
		t.Errorf("lease poll answered 200: %+v, ok %v, err %v", l, ok, err)
	}
	if _, err := api.Heartbeat(ctx, "l1", Heartbeat{WorkerID: "w1"}); err != ErrLeaseGone {
		t.Errorf("heartbeat answered 410: %v, want ErrLeaseGone", err)
	}
	if _, err := api.Complete(ctx, "l1", ResultUpload{WorkerID: "w1"}); err != ErrLeaseGone {
		t.Errorf("upload answered 410: %v, want ErrLeaseGone", err)
	}

	if err := api.PushCkpt(ctx, "l1", "abc", []byte("artifact")); err != nil {
		t.Fatalf("push under the lease: %v", err)
	}
	if got, err := api.FetchCkpt(ctx, "l1", "abc"); err != nil || !bytes.Equal(got, []byte("artifact")) {
		t.Errorf("fetch under the lease: %q, %v", got, err)
	}
	if err := api.PushCkpt(ctx, "l2", "abc", []byte("other")); err == nil {
		t.Error("push under another lease succeeded")
	}
	if _, err := api.FetchCkpt(ctx, "l2", "abc"); err == nil {
		t.Error("fetch under another lease succeeded")
	}
}
