package worker

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/auth"
	"repro/internal/campaign"
	"repro/internal/ckpt"
	"repro/internal/wire"
)

// Worker is the pull-based remote simulation worker: it leases jobs
// from a campaign server, executes them with campaign.ExecuteStored
// against a local scratch cache and checkpoint store, heartbeats while
// they run, and uploads the results. Run drives it until ctx ends (hard
// stop: in-flight jobs are abandoned and the server re-leases them) or
// Shutdown is called (graceful: stop leasing, finish in-flight jobs,
// leave the fleet).
type Worker struct {
	// Server is the sdiqd base URL.
	Server string
	// Name labels the worker in its own log lines (hostname when empty);
	// the server knows it by the ID Run picks.
	Name string
	// Scratch is the local result cache directory ("" = none): a job the
	// worker has run before is answered from disk without re-simulating.
	Scratch string
	// Ckpt is the local checkpoint artifact store directory ("" = none):
	// sampled jobs whose lease names a checkpoint key download the
	// sweep's shared warm state from the server (or generate and push it
	// back) instead of each re-warming from scratch.
	//
	// Both directories hold the shared namespace's stores; a lease from
	// an isolated tenant's campaign uses tenants/<name> under each.
	Ckpt string
	// Concurrency is how many leases run at once (min 1).
	Concurrency int
	// ScratchMaxBytes bounds every result cache and checkpoint store the
	// worker has opened, each separately, evicting least recently used
	// entries after every job executed in it; 0 means unbounded.
	ScratchMaxBytes int64
	// Token is the worker-role bearer credential, required against a
	// server running with -auth; "" sends no Authorization header.
	Token string
	// API overrides the protocol client (tests); nil builds one from
	// Server.
	API *API

	// Logf, when non-nil, receives worker lifecycle logging.
	Logf func(format string, args ...any)
	// OnLease, when non-nil, observes every granted lease before the job
	// executes — the failure-injection tests' kill hook.
	OnLease func(Lease)
	// OnDone, when non-nil, observes every execution outcome before its
	// upload.
	OnDone func(l Lease, res campaign.Result, err error)

	quitOnce sync.Once
	quit     chan struct{}

	mu     sync.Mutex
	stores map[string]*stores // by server namespace, opened at first use
}

// stores are one server namespace's local result cache and checkpoint
// store.
type stores struct {
	scratch *campaign.Cache
	ckpt    *ckpt.Store // nil when Ckpt is unset or unusable
}

// storesOf returns the local stores of a server namespace, opening them
// at first use: the shared namespace ("") keeps the Scratch and Ckpt
// directories themselves, and an isolated tenant gets tenants/<name>
// under each, so one tenant's results and warm state never answer
// another tenant's lease.
func (w *Worker) storesOf(ns string) (*stores, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if st, ok := w.stores[ns]; ok {
		return st, nil
	}
	if ns != "" && !auth.ValidName(ns) {
		return nil, fmt.Errorf("invalid namespace %q", ns)
	}
	dir := func(root string) string {
		if root == "" || ns == "" {
			return root
		}
		return filepath.Join(root, "tenants", ns)
	}
	scratch, err := campaign.OpenCache(dir(w.Scratch))
	if err != nil {
		return nil, fmt.Errorf("scratch cache: %w", err)
	}
	store, err := ckpt.Open(dir(w.Ckpt))
	if err != nil {
		// Checkpointing is an optimization: a broken store directory
		// degrades to warm-from-scratch execution, not a dead worker.
		w.logf("checkpoint store disabled: %v", err)
	}
	if w.stores == nil {
		w.stores = make(map[string]*stores)
	}
	st := &stores{scratch: scratch, ckpt: store}
	w.stores[ns] = st
	return st, nil
}

func (w *Worker) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

// quitCh lazily builds the graceful-shutdown channel so Shutdown works
// whether or not Run has started.
func (w *Worker) quitCh() chan struct{} {
	w.quitOnce.Do(func() { w.quit = make(chan struct{}) })
	return w.quit
}

// Shutdown stops the worker gracefully: no new leases are taken,
// in-flight jobs finish and upload, then Run deregisters and returns.
// Safe to call from any goroutine, more than once, before or after Run.
func (w *Worker) Shutdown() {
	ch := w.quitCh()
	select {
	case <-ch:
	default:
		close(ch)
	}
}

// Lease polls that fail in transport or with a 5xx are retried with
// jittered exponential backoff between these bounds: a coordinator
// restart is survived by waiting, not by dying, and the jitter keeps a
// restarted coordinator from being stampeded by its whole fleet at
// once.
const (
	retryBase = 500 * time.Millisecond
	retryMax  = 15 * time.Second
)

// Run picks the worker's ID and serves leases until ctx ends or
// Shutdown is called. Its first lease poll joins the server's fleet,
// and after a coordinator restart the next poll joins the new one. A
// 4xx answer to a poll — protocol drift, or a token the server refuses
// — ends Run with that error: waiting cannot fix it. Cancelling ctx is
// a hard stop — running jobs abort mid-simulation and nothing more is
// sent, exactly like a crashed machine; the server's lease TTL recovers
// their jobs.
func (w *Worker) Run(ctx context.Context) error {
	api := w.API
	if api == nil {
		api = NewAPI(w.Server)
	}
	if api.Token == "" {
		api.Token = w.Token
	}
	conc := w.Concurrency
	if conc < 1 {
		conc = 1
	}
	name := w.Name
	if name == "" {
		name, _ = os.Hostname()
	}
	// The shared namespace's stores open now, so a bad Scratch fails
	// here rather than at the first lease.
	if _, err := w.storesOf(""); err != nil {
		return fmt.Errorf("worker: %w", err)
	}
	var idb [8]byte
	_, _ = rand.Read(idb[:]) // never fails: since Go 1.24 it crashes the program instead
	id := "w" + hex.EncodeToString(idb[:])
	w.logf("%s polls %s as worker %s", name, api.Base, id)

	// pollCtx ends on either stop signal, cutting the long poll (and any
	// backoff) short.
	pollCtx, cancelPoll := context.WithCancel(ctx)
	defer cancelPoll()
	quit := w.quitCh()
	go func() {
		select {
		case <-quit:
			cancelPoll()
		case <-pollCtx.Done():
		}
	}()

	req := LeaseRequest{WorkerID: id, Capacity: conc}
	slots := make(chan struct{}, conc)
	var wg sync.WaitGroup
	var refused error
	fails := 0
lease:
	for {
		select {
		case slots <- struct{}{}:
		case <-pollCtx.Done():
			break lease
		}
		l, ok, err := api.Lease(pollCtx, req)
		if err != nil {
			<-slots
			if pollCtx.Err() != nil {
				break lease
			}
			if wire.StatusCode(err)/100 == 4 {
				refused = err
				break lease
			}
			fails++
			w.logf("lease poll: %v (retrying)", err)
			select {
			case <-time.After(wire.Backoff(fails-1, retryBase, retryMax)):
			case <-pollCtx.Done():
				break lease
			}
			continue
		}
		fails = 0
		if !ok {
			<-slots
			continue
		}
		wg.Add(1)
		go func(l Lease) {
			defer wg.Done()
			defer func() { <-slots }()
			w.serve(ctx, api, id, l)
		}(l)
	}
	wg.Wait()
	if refused != nil {
		return refused
	}

	// Leave only on the graceful path. A hard stop (ctx cancelled)
	// models a crashed machine: it says nothing, and the server's lease
	// TTL is the cleanup — which is exactly what the failure-injection
	// suite exercises.
	if ctx.Err() == nil {
		dctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if err := api.Deregister(dctx, id); err == nil {
			w.logf("deregistered %s", id)
		}
	}
	return ctx.Err()
}

// serve executes one lease in its namespace's stores: scratch-cache
// check, checkpoint artifact fetch, heartbeat loop, execution, upload
// (plus a best-effort artifact push when this worker generated the
// sweep's warm state). A worker whose ctx dies mid-job goes silent — no
// upload, no error report — which is precisely the failure the server's
// lease expiry exists to absorb.
func (w *Worker) serve(ctx context.Context, api *API, id string, l Lease) {
	if w.OnLease != nil {
		w.OnLease(l)
	}
	if ctx.Err() != nil {
		return // killed before the job started; the lease will expire
	}
	job := l.Job.Job()
	w.logf("lease %s: %s (attempt %d)", l.ID, job.ID(), l.Attempt)

	// Conformance self-check: the lease's key must be the hash this
	// worker derives from the same job. A mismatch means protocol or
	// version drift — refuse rather than poison the shared cache.
	key, err := campaign.JobKey(&job, l.Job.Params)
	if err == nil && key != l.Key {
		err = fmt.Errorf("job key mismatch: lease says %.12s, worker derives %.12s", l.Key, key)
	}
	var st *stores
	if err == nil {
		st, err = w.storesOf(l.Namespace)
	}
	if err != nil {
		w.upload(ctx, api, id, l, campaign.Result{}, fmt.Errorf("worker %s: %w", id, err))
		return
	}
	scratch, store := st.scratch, st.ckpt

	if res, ok := scratch.Get(key); ok {
		w.logf("lease %s: scratch hit", l.ID)
		if w.OnDone != nil {
			w.OnDone(l, res, nil)
		}
		w.upload(ctx, api, id, l, res, nil)
		return
	}

	// Checkpoint artifact: fetch the sweep's shared warm state before
	// executing. A miss (first cell of the sweep landing here, or a
	// store-less server) is fine — the execution generates the artifact
	// locally and pushes it back afterwards. Failures at every step
	// degrade to warm-from-scratch. held records whether the artifact
	// existed before this execution: only one this lease generated is
	// pushed.
	ckptKey := l.CkptKey
	if store == nil {
		ckptKey = ""
	}
	held := ckptKey != "" && store.Has(ckptKey)
	if ckptKey != "" && !held {
		if data, err := api.FetchCkpt(ctx, l.ID, ckptKey); err != nil {
			w.logf("lease %s: no artifact %.12s… from server: %v", l.ID, ckptKey, err)
		} else if err := store.WriteRaw(ckptKey, data); err != nil {
			w.logf("lease %s: artifact %.12s… rejected locally: %v", l.ID, ckptKey, err)
		} else {
			held = true
			w.logf("lease %s: fetched artifact %.12s… (%d bytes)", l.ID, ckptKey, len(data))
		}
	}

	// Heartbeat until the job finishes; a Cancel response (or a gone
	// lease) aborts the execution.
	jobCtx, cancelJob := context.WithCancel(ctx)
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		every := time.Duration(l.DeadlineMS) * time.Millisecond / 3
		if every <= 0 {
			every = 5 * time.Second
		}
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-jobCtx.Done():
				return
			case <-t.C:
			}
			resp, err := api.Heartbeat(jobCtx, l.ID, Heartbeat{WorkerID: id})
			if err == ErrLeaseGone || resp.Cancel {
				w.logf("lease %s: server cancelled (gone=%v)", l.ID, err == ErrLeaseGone)
				cancelJob()
				return
			}
			// Transient heartbeat errors are survivable as long as one
			// lands within the lease TTL; keep trying.
		}
	}()

	res, execErr := campaign.ExecuteStored(jobCtx, &job, store)
	cancelJob()
	<-hbDone

	if ctx.Err() != nil {
		return // hard-stopped: vanish; the server re-leases the job
	}
	if execErr == nil {
		_ = scratch.Put(key, res)
		if ckptKey != "" && !held {
			// This lease generated the sweep's warm state, if ReadRaw
			// finds a usable artifact: publish it so the server and the
			// rest of the fleet skip their warming. Best-effort — the
			// server may refuse (another cell beat us to it) and
			// correctness never depends on the push landing.
			if data, err := store.ReadRaw(ckptKey); err == nil {
				if err := api.PushCkpt(ctx, l.ID, ckptKey, data); err != nil {
					w.logf("lease %s: artifact push: %v", l.ID, err)
				} else {
					w.logf("lease %s: pushed artifact %.12s… (%d bytes)", l.ID, ckptKey, len(data))
				}
			}
		}
		// Bound the local stores only now: the push above reads the
		// artifact this job generated. Eviction costs a later job a
		// fetch or a regeneration, never a wrong result, and a failed
		// GC only leaves a store over its bound until the next job's.
		_, _, _ = scratch.GC(w.ScratchMaxBytes)
		_, _, _ = store.GC(w.ScratchMaxBytes)
	}
	if w.OnDone != nil {
		w.OnDone(l, res, execErr)
	}
	w.upload(ctx, api, id, l, res, execErr)
}

// upload sends a lease's outcome, retrying briefly: the lease TTL gives
// room, and if every attempt fails the server's expiry re-queues the
// job anyway — correctness never depends on the upload landing.
func (w *Worker) upload(ctx context.Context, api *API, workerID string, l Lease, res campaign.Result, execErr error) {
	up := ResultUpload{WorkerID: workerID, Key: l.Key}
	if execErr != nil {
		up.Error = execErr.Error()
	} else {
		up.Result = &res
	}
	for attempt := 0; attempt < 3; attempt++ {
		if ctx.Err() != nil {
			return
		}
		_, err := api.Complete(ctx, l.ID, up)
		if err == nil || err == ErrLeaseGone {
			if err == ErrLeaseGone {
				w.logf("lease %s: upload after expiry, discarded by server", l.ID)
			}
			return
		}
		if wire.StatusCode(err)/100 == 4 {
			// A 4xx (the server rejected the result's identity, or the
			// lease is held by another worker) is final: re-sending
			// identical bytes cannot change the answer.
			w.logf("lease %s: upload refused: %v", l.ID, err)
			return
		}
		w.logf("lease %s: upload failed: %v", l.ID, err)
		select {
		case <-time.After(200 * time.Millisecond):
		case <-ctx.Done():
			return
		}
	}
}
