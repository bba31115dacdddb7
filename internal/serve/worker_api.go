package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"

	"repro/internal/worker"
)

// Worker-pool HTTP surface: thin JSON shims over the dispatcher. The
// wire types live in internal/worker (shared with the sdiqw binary and
// pinned by that package's golden fixtures).

func (s *Server) handleWorkerDeregister(w http.ResponseWriter, r *http.Request) {
	if !s.disp.deregister(r.PathValue("id")) {
		writeError(w, http.StatusNotFound, "no worker %q", r.PathValue("id"))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	var req worker.LeaseRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad lease request: %v", err)
		return
	}
	// A parked poll also ends when the server closes, so an HTTP
	// shutdown need not wait it out.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	defer context.AfterFunc(s.ctx, cancel)()
	l, t, err := s.disp.nextLease(ctx, req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if l == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, http.StatusOK, worker.Lease{
		ID:         l.id,
		Key:        t.key,
		Attempt:    t.attempts,
		DeadlineMS: s.disp.ttl.Milliseconds(),
		Namespace:  t.ns.name,
		CkptKey:    t.ckptKey,
		Job:        worker.JobSpecOf(t.job, t.params),
	})
}

func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var hb worker.Heartbeat
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&hb); err != nil {
		writeError(w, http.StatusBadRequest, "bad heartbeat: %v", err)
		return
	}
	resp, ok := s.disp.heartbeat(r.PathValue("id"), hb)
	if !ok {
		writeError(w, http.StatusGone, "lease %q is gone", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleLeaseResult(w http.ResponseWriter, r *http.Request) {
	var up worker.ResultUpload
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20)).Decode(&up); err != nil {
		writeError(w, http.StatusBadRequest, "bad result upload: %v", err)
		return
	}
	resp, err := s.disp.complete(r.PathValue("id"), up)
	switch {
	case errors.Is(err, errLeaseGone):
		writeError(w, http.StatusGone, "lease %q is gone (result discarded)", r.PathValue("id"))
	case errors.Is(err, errNotHolder):
		writeError(w, http.StatusConflict, "lease %q is held by another worker", r.PathValue("id"))
	case err != nil:
		writeError(w, http.StatusUnprocessableEntity, "result rejected: %v", err)
	default:
		writeJSON(w, http.StatusOK, resp)
	}
}
