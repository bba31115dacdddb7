package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/ckpt"
	"repro/internal/power"
	"repro/internal/worker"
)

// dispatcher is the server side of the remote worker pool. It sits
// behind the campaign engines, through their namespaces' RunJob: every
// cache-missed, dedup-missed job lands in runJob, which either offers
// it to the lease queue (workers connected) or runs it in-process on
// the shared gate. Workers pull jobs with long-poll leases, heartbeat
// while they run, and upload results; a lease that misses its TTL is
// presumed dead and its job is re-queued (bounded retries, then local
// fallback), so a campaign always finishes — byte-identically — no
// matter how much of the fleet dies under it.
type dispatcher struct {
	ttl       time.Duration // lease lifetime between heartbeats
	offer     time.Duration // max queue wait before local fallback
	workerTTL time.Duration // registered-worker staleness window
	retries   int           // re-lease attempts after a failed lease
	gate      campaign.Gate // shared simulation gate (local executions)
	met       *metrics
	// nonce is a per-boot random tag baked into every worker and lease
	// ID. Without it a restarted coordinator reissues the same IDs from
	// zero ("w0001", "l000001"), and a zombie worker's late upload —
	// carrying pre-restart IDs for a JobKey that is valid again — would
	// be accepted against the new boot's lease. With the nonce, stale
	// IDs can never collide with freshly issued ones: they 410.
	nonce string

	mu      sync.Mutex
	wseq    int
	lseq    int
	workers map[string]*workerState
	queue   []*task
	wake    chan struct{} // closed+replaced when the queue gains a task
	leases  map[string]*lease
}

// Dispatcher protocol defaults (overridable via Config).
const (
	defaultLeaseTTL   = 15 * time.Second
	defaultJobRetries = 2
)

// workerState is one registered worker.
type workerState struct {
	id       string
	name     string
	capacity int
	lastSeen time.Time
	active   int     // leases currently held
	rate     float64 // last reported insts/sec
}

// taskState is a queued job's lifecycle under the dispatcher.
type taskState int

const (
	taskQueued taskState = iota
	taskLeased
	taskDone // outcome delivered (or abandoned by its campaign)
)

// task is one job offered to the fleet. Its owner (the engine worker
// goroutine blocked in runJob) waits on outcome; the dispatcher's state
// machine guarantees exactly one delivery.
type task struct {
	job     *campaign.Job
	key     string
	ckptKey string      // checkpoint artifact key ("" = none)
	ckpt    *ckpt.Store // store this job reads/publishes warm state in
	params  power.Params
	ctx     context.Context // the campaign's context

	state    taskState
	attempts int         // leases granted so far
	offerT   *time.Timer // fires while queued → local fallback
	outcome  chan taskOutcome
}

// taskOutcome resolves a task: a worker's validated result, an error
// (the campaign died), or fallback (run it locally).
type taskOutcome struct {
	res      campaign.Result
	err      error
	fallback bool
}

// lease is one job handed to one worker, kept alive by heartbeats.
type lease struct {
	id       string
	workerID string
	t        *task
	deadline time.Time
	timer    *time.Timer
	granted  time.Time
}

func newDispatcher(cfg Config, gate campaign.Gate, met *metrics) *dispatcher {
	ttl := cfg.LeaseTTL
	if ttl <= 0 {
		ttl = defaultLeaseTTL
	}
	offer := cfg.OfferTimeout
	if offer <= 0 {
		offer = ttl
	}
	wttl := cfg.WorkerTTL
	if wttl <= 0 {
		wttl = ttl
	}
	retries := cfg.JobRetries
	if retries < 0 {
		retries = 0
	} else if retries == 0 {
		retries = defaultJobRetries
	}
	var nb [4]byte
	if _, err := rand.Read(nb[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; here a
		// constant just restores the old (colliding) behaviour, so don't
		// crash the coordinator over it.
		copy(nb[:], "boot")
	}
	return &dispatcher{
		ttl:       ttl,
		offer:     offer,
		workerTTL: wttl,
		retries:   retries,
		gate:      gate,
		met:       met,
		nonce:     hex.EncodeToString(nb[:]),
		workers:   make(map[string]*workerState),
		wake:      make(chan struct{}),
		leases:    make(map[string]*lease),
	}
}

// --- job routing ---

// runJob routes one cache-missed job: to the fleet when live workers
// are registered (falling back locally if the offer times out, the
// campaign is cancelled, or remote attempts are exhausted), otherwise
// straight to the in-process gate. store is the checkpoint store of the
// owning campaign's namespace: the job reads warm state from it and
// publishes it to it, locally and, through the leases that carry the
// job, across the fleet.
func (d *dispatcher) runJob(ctx context.Context, job *campaign.Job, key string, params power.Params, store *ckpt.Store) (campaign.Result, error) {
	if key != "" && d.hasWorkers() {
		res, err, done := d.runRemote(ctx, job, key, params, store)
		if done {
			return res, err
		}
		d.met.jobsFellBack.Add(1)
	}
	return d.runLocal(ctx, job, store)
}

// runRemote offers the job to the lease queue and waits it out. done is
// false when the job should fall back to local execution.
func (d *dispatcher) runRemote(ctx context.Context, job *campaign.Job, key string, params power.Params, store *ckpt.Store) (campaign.Result, error, bool) {
	t := &task{
		job:     job,
		key:     key,
		ckpt:    store,
		params:  params,
		ctx:     ctx,
		outcome: make(chan taskOutcome, 1),
	}
	if store != nil {
		// Sampled jobs carry their checkpoint identity into the lease so
		// a worker can fetch (or publish) the sweep's shared warm state.
		t.ckptKey, _ = campaign.CheckpointKey(job)
	}
	d.mu.Lock()
	d.enqueueLocked(t, false)
	d.mu.Unlock()
	select {
	case out := <-t.outcome:
		if out.fallback {
			return campaign.Result{}, nil, false
		}
		return out.res, out.err, true
	case <-ctx.Done():
		d.abandon(t)
		return campaign.Result{}, ctx.Err(), true
	}
}

// runLocal executes in-process under the shared gate — the exact path
// the server ran every job through before the worker pool existed.
func (d *dispatcher) runLocal(ctx context.Context, job *campaign.Job, store *ckpt.Store) (campaign.Result, error) {
	if err := d.gate.Acquire(ctx); err != nil {
		return campaign.Result{}, err
	}
	defer d.gate.Release()
	d.met.jobsLocal.Add(1)
	return campaign.ExecuteStored(ctx, job, store)
}

// enqueueLocked puts a task on the queue (front for retries, so a
// recovered job overtakes fresh work) and arms its offer timer.
func (d *dispatcher) enqueueLocked(t *task, front bool) {
	t.state = taskQueued
	if front {
		d.queue = append([]*task{t}, d.queue...)
	} else {
		d.queue = append(d.queue, t)
	}
	t.offerT = time.AfterFunc(d.offer, func() { d.offerExpired(t) })
	close(d.wake)
	d.wake = make(chan struct{})
}

// removeLocked drops a task from the queue slice.
func (d *dispatcher) removeLocked(t *task) {
	for i, q := range d.queue {
		if q == t {
			d.queue = append(d.queue[:i:i], d.queue[i+1:]...)
			return
		}
	}
}

// offerExpired fires when a task sat unleased for the full offer
// window: the fleet is too slow (or dead) — reclaim it for local
// execution.
func (d *dispatcher) offerExpired(t *task) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if t.state != taskQueued {
		return
	}
	d.removeLocked(t)
	t.state = taskDone
	t.outcome <- taskOutcome{fallback: true}
}

// abandon detaches a task whose campaign stopped waiting. A queued task
// leaves the queue; a leased one stays with its worker, whose next
// heartbeat is told to cancel and whose upload is discarded.
func (d *dispatcher) abandon(t *task) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if t.state == taskQueued {
		d.removeLocked(t)
		t.offerT.Stop()
	}
	t.state = taskDone
}

// requeueLocked returns a leased task to the queue after its lease
// failed (expiry, worker-reported error, rejected upload) — or, past
// the retry budget, resolves it to local fallback.
func (d *dispatcher) requeueLocked(t *task) {
	if t.state != taskLeased {
		return
	}
	if err := t.ctx.Err(); err != nil {
		t.state = taskDone
		t.outcome <- taskOutcome{err: err}
		return
	}
	if t.attempts > d.retries {
		t.state = taskDone
		t.outcome <- taskOutcome{fallback: true}
		return
	}
	d.met.leaseRequeues.Add(1)
	d.enqueueLocked(t, true)
}

// --- worker registry ---

// register admits a worker and returns its id and timing contract.
func (d *dispatcher) register(req worker.RegisterRequest) (worker.RegisterResponse, error) {
	if req.Protocol != worker.ProtocolVersion {
		return worker.RegisterResponse{}, fmt.Errorf(
			"worker speaks protocol %d, server speaks %d", req.Protocol, worker.ProtocolVersion)
	}
	capacity := req.Capacity
	if capacity < 1 {
		capacity = 1
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.pruneLocked()
	d.wseq++
	w := &workerState{
		id:       fmt.Sprintf("w%s-%04d", d.nonce, d.wseq),
		name:     req.Name,
		capacity: capacity,
		lastSeen: time.Now(),
	}
	d.workers[w.id] = w
	d.met.workersRegistered.Add(1)
	if req.Reconnects > 0 {
		d.met.workerReconnects.Add(1)
	}
	return worker.RegisterResponse{
		WorkerID:    w.id,
		LeaseTTLMS:  d.ttl.Milliseconds(),
		HeartbeatMS: max64(d.ttl.Milliseconds()/3, 1),
		MaxPollMS:   max64(d.workerTTL.Milliseconds()/2, 1),
	}, nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// deregister removes a worker; leases it still holds are re-queued
// immediately rather than waiting out their TTLs.
func (d *dispatcher) deregister(id string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.workers[id]; !ok {
		return false
	}
	delete(d.workers, id)
	for lid, l := range d.leases {
		if l.workerID != id {
			continue
		}
		delete(d.leases, lid)
		l.timer.Stop()
		d.requeueLocked(l.t)
	}
	return true
}

// pruneLocked evicts workers that went stale with no leases left —
// hard-killed workers never deregister, so without this a server with
// fleet churn would accumulate dead registry entries forever. Run on
// every registration: churn (crash + respawn) is exactly when new dead
// entries appear. A stale worker still holding leases survives until
// they expire (expiry drives active back to zero).
func (d *dispatcher) pruneLocked() {
	for id, w := range d.workers {
		if !d.freshLocked(w) && w.active <= 0 {
			delete(d.workers, id)
		}
	}
}

// touchLocked refreshes a worker's liveness stamp.
func (d *dispatcher) touchLocked(w *workerState) { w.lastSeen = time.Now() }

// freshLocked reports whether a worker has been heard from recently.
func (d *dispatcher) freshLocked(w *workerState) bool {
	return time.Since(w.lastSeen) <= d.workerTTL
}

// hasWorkers reports whether any live worker is registered — the
// remote-vs-local routing signal.
func (d *dispatcher) hasWorkers() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, w := range d.workers {
		if d.freshLocked(w) {
			return true
		}
	}
	return false
}

// extraCapacity is the fleet's concurrent-job headroom — added to each
// campaign engine's worker count so remote capacity actually raises
// campaign parallelism beyond the local gate.
func (d *dispatcher) extraCapacity() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	total := 0
	for _, w := range d.workers {
		if d.freshLocked(w) {
			total += w.capacity
		}
	}
	if total > 256 {
		total = 256
	}
	return total
}

// --- lease protocol ---

// nextLease blocks up to wait for a job to offer the worker. A nil
// lease with nil error means the wait expired empty (→ 204).
func (d *dispatcher) nextLease(ctx context.Context, workerID string, wait time.Duration) (*lease, *task, error) {
	maxWait := d.workerTTL / 2
	if wait <= 0 || wait > maxWait {
		wait = maxWait
	}
	timeout := time.NewTimer(wait)
	defer timeout.Stop()
	for {
		d.mu.Lock()
		w, ok := d.workers[workerID]
		if !ok {
			d.mu.Unlock()
			return nil, nil, fmt.Errorf("unknown worker %q (register first)", workerID)
		}
		d.touchLocked(w)
		if len(d.queue) > 0 {
			t := d.queue[0]
			d.queue = d.queue[1:]
			t.offerT.Stop()
			t.state = taskLeased
			t.attempts++
			d.lseq++
			l := &lease{
				id:       fmt.Sprintf("l%s-%06d", d.nonce, d.lseq),
				workerID: workerID,
				t:        t,
				deadline: time.Now().Add(d.ttl),
				granted:  time.Now(),
			}
			l.timer = time.AfterFunc(d.ttl, func() { d.expire(l.id) })
			d.leases[l.id] = l
			w.active++
			d.met.leasesGranted.Add(1)
			d.mu.Unlock()
			return l, t, nil
		}
		wake := d.wake
		d.mu.Unlock()
		select {
		case <-wake:
		case <-timeout.C:
			d.touch(workerID)
			return nil, nil, nil
		case <-ctx.Done():
			return nil, nil, nil
		}
	}
}

func (d *dispatcher) touch(workerID string) {
	d.mu.Lock()
	if w, ok := d.workers[workerID]; ok {
		d.touchLocked(w)
	}
	d.mu.Unlock()
}

// expire fires when a lease outlived its TTL without a heartbeat: the
// worker is presumed dead and the job goes back on the queue.
func (d *dispatcher) expire(leaseID string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	l, ok := d.leases[leaseID]
	if !ok {
		return
	}
	if now := time.Now(); now.Before(l.deadline) {
		// A heartbeat renewed the deadline while this callback was
		// waiting on the lock (timer-fire vs Reset race): the worker is
		// alive — re-arm for the remainder instead of tearing down a
		// lease that was just renewed.
		l.timer.Reset(l.deadline.Sub(now))
		return
	}
	delete(d.leases, leaseID)
	if w, ok := d.workers[l.workerID]; ok {
		w.active--
	}
	d.met.leasesExpired.Add(1)
	d.requeueLocked(l.t)
}

// heartbeat re-arms a lease. gone means the server no longer holds it.
func (d *dispatcher) heartbeat(leaseID string, hb worker.Heartbeat) (worker.HeartbeatResponse, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	l, ok := d.leases[leaseID]
	if !ok || l.workerID != hb.WorkerID {
		return worker.HeartbeatResponse{}, false
	}
	if w, ok := d.workers[hb.WorkerID]; ok {
		d.touchLocked(w)
		w.rate = hb.InstsPerSec
	}
	l.deadline = time.Now().Add(d.ttl)
	l.timer.Reset(d.ttl)
	return worker.HeartbeatResponse{
		Cancel:     l.t.state == taskDone || l.t.ctx.Err() != nil,
		DeadlineMS: d.ttl.Milliseconds(),
	}, true
}

// complete resolves a lease from a result upload. gone means the lease
// already expired (the upload is late; its job is elsewhere by now).
// The upload is validated against the leased job's own identity — its
// JobKey and result coordinates — before the result is accepted; an
// upload that fails validation counts as a failed lease and the job is
// re-queued.
func (d *dispatcher) complete(leaseID string, up worker.ResultUpload) (worker.ResultResponse, error, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	l, ok := d.leases[leaseID]
	if !ok || l.workerID != up.WorkerID {
		d.met.lateUploads.Add(1)
		return worker.ResultResponse{}, nil, false
	}
	delete(d.leases, leaseID)
	l.timer.Stop()
	if w, ok := d.workers[up.WorkerID]; ok {
		d.touchLocked(w)
		w.active--
	}
	t := l.t
	if t.state != taskLeased {
		// The campaign stopped waiting; nothing to deliver to.
		return worker.ResultResponse{}, nil, true
	}
	if up.Error != "" {
		d.met.workerJobFailures.Add(1)
		d.requeueLocked(t)
		return worker.ResultResponse{Requeued: t.state == taskQueued}, nil, true
	}
	if err := validateUpload(t, up); err != nil {
		d.met.resultsRejected.Add(1)
		d.requeueLocked(t)
		return worker.ResultResponse{Requeued: t.state == taskQueued}, err, true
	}
	res := *up.Result
	res.Point = t.job.Point // canonical coordinates, as the engine stamps them
	t.state = taskDone
	d.met.jobsRemote.Add(1)
	t.outcome <- taskOutcome{res: res}
	return worker.ResultResponse{Accepted: true}, nil, true
}

// validateUpload checks a worker's result against the job the lease
// actually carried: the echoed JobKey must match the one the server
// derived when it offered the job, and the result's identity fields
// must name that job. This is the gate between the fleet and the shared
// cache — a confused or malicious worker is rejected here, never
// cached.
func validateUpload(t *task, up worker.ResultUpload) error {
	if up.Result == nil {
		return fmt.Errorf("upload carries neither result nor error")
	}
	if up.Key != t.key {
		return fmt.Errorf("job key mismatch: lease %.12s, upload %.12s", t.key, up.Key)
	}
	if up.Result.Bench != t.job.Bench || up.Result.Tech != t.job.Tech {
		return fmt.Errorf("result identity mismatch: leased %s/%s, uploaded %s/%s",
			t.job.Bench, t.job.Tech, up.Result.Bench, up.Result.Tech)
	}
	if (up.Result.Sampled != nil) != (t.job.Sampling != nil) {
		return fmt.Errorf("result sampling mode mismatch")
	}
	return nil
}

// leasedStore resolves an artifact request to the checkpoint store of
// the live lease it names, and only when that lease's job carries key:
// a worker reads and publishes warm state for the job it holds, in the
// namespace of the campaign that job serves, and nothing else is
// reachable from outside (WriteRaw still validates the container).
func (d *dispatcher) leasedStore(leaseID, key string) (*ckpt.Store, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	l, ok := d.leases[leaseID]
	if !ok || l.t.ckptKey == "" || l.t.ckptKey != key {
		return nil, false
	}
	return l.t.ckpt, true
}

// --- metrics ---

// rows renders the dispatcher's live gauges for /metrics.
func (d *dispatcher) rows() []row {
	d.mu.Lock()
	connected, capacity, rate := 0, 0, 0.0
	for _, w := range d.workers {
		if d.freshLocked(w) {
			connected++
			capacity += w.capacity
			rate += w.rate
		}
	}
	queued, active := len(d.queue), len(d.leases)
	d.mu.Unlock()
	return []row{
		{"sdiqd_workers_connected", "Live registered workers.", "gauge", float64(connected)},
		{"sdiqd_worker_capacity", "Total concurrent-job capacity of live workers.", "gauge", float64(capacity)},
		{"sdiqd_worker_insts_per_second", "Fleet simulation rate as last reported by worker heartbeats.", "gauge", rate},
		{"sdiqd_lease_queue_depth", "Jobs waiting to be leased.", "gauge", float64(queued)},
		{"sdiqd_leases_active", "Leases currently held by workers.", "gauge", float64(active)},
	}
}
