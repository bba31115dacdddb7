package worker

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/url"
	"strings"

	"repro/internal/wire"
)

// ErrLeaseGone reports a heartbeat or upload against a lease the server
// no longer holds — it expired (the job is already re-queued) or its
// campaign is gone. The worker's move is always the same: drop the job
// and lease the next one.
var ErrLeaseGone = errors.New("worker: lease gone")

// API is the low-level protocol client — one method per endpoint, no
// policy. Worker drives it; protocol tests drive it directly to play
// misbehaving fleets (dead workers, late uploads, corrupt results).
// Its errors are *wire.Error whenever the server answered, except for
// the one that says what to do next: ErrLeaseGone.
type API struct {
	// Base is the server root, e.g. "http://host:8080".
	Base string
	// HTTP is the transport; nil means http.DefaultClient.
	HTTP *http.Client
	// Token, when non-empty, is sent as "Authorization: Bearer" on every
	// request — required against a server running with -auth (a
	// worker-role credential).
	Token string
}

// NewAPI returns a protocol client for the server at base.
func NewAPI(base string) *API {
	return &API{Base: strings.TrimRight(base, "/")}
}

func (a *API) conn() wire.Conn {
	return wire.Conn{Base: a.Base, HTTP: a.HTTP, Token: a.Token}
}

// call performs one JSON request (wire.Conn.Call); a 410 becomes
// ErrLeaseGone.
func (a *API) call(ctx context.Context, method, path string, in, out any) (int, error) {
	status, err := a.conn().Call(ctx, method, path, in, out)
	if status == http.StatusGone {
		return status, ErrLeaseGone
	}
	return status, err
}

// Deregister removes the worker; any leases it still holds are
// immediately re-queued.
func (a *API) Deregister(ctx context.Context, workerID string) error {
	_, err := a.call(ctx, http.MethodDelete, "/v1/workers/"+workerID, nil, nil)
	return err
}

// Lease asks for the next job, long-polling up to req.WaitMS; the
// server admits the worker at its first poll. A zero req.Protocol sends
// ProtocolVersion. ok is false when the wait expired with nothing to do.
func (a *API) Lease(ctx context.Context, req LeaseRequest) (Lease, bool, error) {
	if req.Protocol == 0 {
		req.Protocol = ProtocolVersion
	}
	var l Lease
	status, err := a.call(ctx, http.MethodPost, "/v1/leases", req, &l)
	if err != nil {
		return Lease{}, false, err
	}
	return l, status != http.StatusNoContent, nil
}

// Heartbeat keeps a lease alive. ErrLeaseGone means the server already
// gave up on it.
func (a *API) Heartbeat(ctx context.Context, leaseID string, hb Heartbeat) (HeartbeatResponse, error) {
	var resp HeartbeatResponse
	_, err := a.call(ctx, http.MethodPost, "/v1/leases/"+leaseID+"/heartbeat", hb, &resp)
	return resp, err
}

// Complete uploads a lease's outcome (result or error).
func (a *API) Complete(ctx context.Context, leaseID string, up ResultUpload) (ResultResponse, error) {
	var resp ResultResponse
	_, err := a.call(ctx, http.MethodPost, "/v1/leases/"+leaseID+"/result", up, &resp)
	return resp, err
}

// FetchCkpt downloads the raw checkpoint artifact for key, which the
// live lease leaseID must carry. Artifacts are opaque binary blobs, not
// JSON.
func (a *API) FetchCkpt(ctx context.Context, leaseID, key string) ([]byte, error) {
	resp, err := a.conn().Send(ctx, http.MethodGet, ckptPath(leaseID, key), "", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// PushCkpt uploads a checkpoint artifact that lease leaseID generated,
// so the rest of the sweep — on the server and the fleet — can resume
// from it.
func (a *API) PushCkpt(ctx context.Context, leaseID, key string, data []byte) error {
	resp, err := a.conn().Send(ctx, http.MethodPut, ckptPath(leaseID, key), "application/octet-stream", bytes.NewReader(data))
	if err != nil {
		return err
	}
	resp.Body.Close()
	return nil
}

// ckptPath names an artifact and the lease that authorizes the request.
func ckptPath(leaseID, key string) string {
	return "/v1/checkpoints/" + key + "?lease=" + url.QueryEscape(leaseID)
}
