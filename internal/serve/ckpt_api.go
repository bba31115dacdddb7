package serve

import (
	"errors"
	"io"
	"io/fs"
	"net/http"
)

// Checkpoint artifact shipping: workers GET the sweep's shared warm
// state instead of re-warming, and PUT artifacts they generated so the
// rest of the grid (and the coordinator's own slots) can resume from
// them. Artifacts are opaque content-addressed blobs here; the store
// validates keys and whole containers both ways, and evicts a corrupt
// one it holds, so a GET for it is a 404. Each request names its live
// lease (?lease=<id>), which must carry the key: the lease authorizes
// the request and picks the namespace it reads or writes.

// maxArtifactBytes bounds a PUT body. Artifacts are gzip streams of
// per-window deltas that grow with the window count: in format 3 one
// warming identity of the benchmark's sweep_sampled workload (10M
// instructions, a window every 200k) takes about 70 KB, so a generous
// fixed cap protects the server without constraining real use.
const maxArtifactBytes = 1 << 30

func (s *Server) handleCkptGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if s.cfg.CkptDir == "" {
		writeError(w, http.StatusNotFound, "no checkpoint store")
		return
	}
	st, ok := s.disp.leasedStore(r.URL.Query().Get("lease"), key)
	if !ok {
		writeError(w, http.StatusNotFound, "no artifact %.12s…", key)
		return
	}
	data, err := st.ReadRaw(key)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			writeError(w, http.StatusNotFound, "no artifact %.12s…", key)
			return
		}
		writeError(w, http.StatusInternalServerError, "reading artifact: %v", err)
		return
	}
	s.met.ckptBytesShipped.Add(int64(len(data)))
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(data)
}

func (s *Server) handleCkptPut(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if s.cfg.CkptDir == "" {
		writeError(w, http.StatusNotFound, "no checkpoint store")
		return
	}
	lease := r.URL.Query().Get("lease")
	st, ok := s.disp.leasedStore(lease, key)
	if !ok {
		// Only a key the named live lease carries is writable: anything
		// else is a confused or hostile client.
		writeError(w, http.StatusForbidden, "artifact key %.12s… is not carried by lease %q", key, lease)
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxArtifactBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading artifact body: %v", err)
		return
	}
	if err := st.WriteRaw(key, data); err != nil {
		writeError(w, http.StatusUnprocessableEntity, "artifact rejected: %v", err)
		return
	}
	s.met.ckptBytesShipped.Add(int64(len(data)))
	w.WriteHeader(http.StatusNoContent)
}
