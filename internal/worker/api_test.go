package worker

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
)

// refuseVersion answers a lease poll as sdiqd answers one in another
// protocol version.
func refuseVersion(w http.ResponseWriter, worker, server int) {
	w.WriteHeader(http.StatusBadRequest)
	fmt.Fprintf(w, `{"error": "worker speaks protocol %d, server speaks %d"}`, worker, server)
}

// TestAPIMappings: against a scripted server, a lease poll sends
// ProtocolVersion unless told otherwise, a 400 answer to it is a
// *wire.Error carrying the server's message, a 204 one is no lease, a
// 410 heartbeat or upload is ErrLeaseGone, and an artifact request
// names its lease.
func TestAPIMappings(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/leases", func(w http.ResponseWriter, r *http.Request) {
		var req LeaseRequest
		_ = json.NewDecoder(r.Body).Decode(&req)
		switch {
		case req.Protocol != ProtocolVersion:
			refuseVersion(w, req.Protocol, ProtocolVersion)
		case req.WorkerID == "idle":
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

	if _, ok, err := api.Lease(ctx, LeaseRequest{WorkerID: "w1", Protocol: ProtocolVersion - 1}); ok ||
		wire.StatusCode(err) != http.StatusBadRequest || !strings.Contains(err.Error(), "server speaks") {
		t.Errorf("lease poll answered 400: ok %v, err %v; want a 400 *wire.Error with the server's message", ok, err)
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

// TestRunEndsOnRefusedPoll: a lease poll that fails with a 5xx is
// retried after a backoff, and one refused with a 4xx — here a protocol
// mismatch — ends Run with that error, at once: waiting cannot fix it.
func TestRunEndsOnRefusedPoll(t *testing.T) {
	var polls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/v1/leases" {
			t.Errorf("unexpected %s %s", r.Method, r.URL.Path)
			w.WriteHeader(http.StatusNotFound)
			return
		}
		var req LeaseRequest
		_ = json.NewDecoder(r.Body).Decode(&req)
		if polls.Add(1) == 1 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		refuseVersion(w, req.Protocol, ProtocolVersion+1)
	}))
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := (&Worker{Server: ts.URL}).Run(ctx)
	if wire.StatusCode(err) != http.StatusBadRequest || !strings.Contains(err.Error(), "server speaks") {
		t.Fatalf("Run = %v, want the poll's 400", err)
	}
	if n := polls.Load(); n != 2 {
		t.Errorf("%d polls, want 2: one retried after its 503, one refused", n)
	}
}
