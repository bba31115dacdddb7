package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/auth"
	"repro/internal/campaign"
	"repro/internal/ckpt"
	"repro/internal/power"
	"repro/internal/worker"
)

// dispatcher is the server's one job queue, behind the campaign
// engines through their namespaces' RunJob. Two kinds of taker drain
// it. Workers pull jobs with long-poll leases, heartbeat while they
// run, and upload results; a lease that misses its TTL is presumed dead
// and its job is re-queued. The coordinator's own slots run a job that
// only they may (unhashable, or failed on the fleet past the retry
// budget), and any job while no live worker is registered. So a
// campaign always finishes — byte-identically — no matter how much of
// the fleet dies under it.
type dispatcher struct {
	ttl       time.Duration // lease lifetime between heartbeats
	workerTTL time.Duration // registered-worker staleness window
	retries   int           // re-lease attempts after a failed lease
	met       *metrics
	// nonce is a per-boot random tag baked into every lease ID. Without
	// it a restarted coordinator reissues the same IDs from zero
	// ("l000001"), and a worker's late upload against a pre-restart
	// lease would land on whatever lease of the new boot took its ID.
	// With the nonce, stale IDs can never collide with freshly issued
	// ones: they 410.
	nonce string

	mu      sync.Mutex
	lseq    int
	workers map[string]*workerState
	queue   []*task
	wake    chan struct{} // closed+replaced when the queue gains a task or a worker leaves
	leases  map[string]*lease
}

// Dispatcher protocol defaults (overridable via Config).
const (
	defaultLeaseTTL   = 15 * time.Second
	defaultJobRetries = 2
)

// workerState is one registered worker, kept under the ID it polls
// with.
type workerState struct {
	capacity int
	lastSeen time.Time
	active   int // leases currently held
}

// taskState is a queued job's lifecycle under the dispatcher.
type taskState int

const (
	taskQueued taskState = iota
	taskTaken            // leased to a worker, or running on a slot
	taskDone             // outcome delivered (or abandoned by its campaign)
)

// task is one queued job. Its owner (the engine worker goroutine
// blocked in runJob) waits on outcome; the dispatcher's state machine
// guarantees exactly one delivery.
type task struct {
	job     *campaign.Job
	key     string
	ckptKey string     // checkpoint artifact key ("" = none)
	ns      *namespace // whose checkpoint store this job reads and publishes warm state in
	params  power.Params
	ctx     context.Context // the campaign's context

	state    taskState
	attempts int  // leases granted so far
	slotOnly bool // only the coordinator's slots may take it
	outcome  chan taskOutcome
}

// taskOutcome resolves a task: a result, or the error that ended it.
type taskOutcome struct {
	res campaign.Result
	err error
}

// lease is one job handed to one worker, kept alive by heartbeats.
type lease struct {
	id       string
	workerID string
	t        *task
	deadline time.Time
	timer    *time.Timer
}

func newDispatcher(cfg Config, met *metrics) *dispatcher {
	ttl := cfg.LeaseTTL
	if ttl <= 0 {
		ttl = defaultLeaseTTL
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
		workerTTL: wttl,
		retries:   retries,
		met:       met,
		nonce:     hex.EncodeToString(nb[:]),
		workers:   make(map[string]*workerState),
		wake:      make(chan struct{}),
		leases:    make(map[string]*lease),
	}
}

// --- the queue ---

// runJob queues one cache-missed job of a campaign in namespace ns and
// waits for whichever taker runs it. The job reads warm state from the
// namespace's checkpoint store and publishes it there, on a slot and,
// through the leases that carry the job and name the namespace, across
// the fleet. An unhashable job (key "") has no identity to validate an
// upload against, so only the slots take it.
func (d *dispatcher) runJob(ctx context.Context, job *campaign.Job, key string, params power.Params, ns *namespace) (campaign.Result, error) {
	t := &task{
		job:      job,
		key:      key,
		ns:       ns,
		params:   params,
		ctx:      ctx,
		slotOnly: key == "",
		outcome:  make(chan taskOutcome, 1),
	}
	if ns.ckpt != nil {
		// Sampled jobs carry their checkpoint identity into the lease so
		// a worker can fetch (or publish) the sweep's shared warm state.
		t.ckptKey, _ = campaign.CheckpointKey(job)
	}
	d.mu.Lock()
	d.enqueueLocked(t, false)
	d.mu.Unlock()
	select {
	case out := <-t.outcome:
		return out.res, out.err
	case <-ctx.Done():
		d.abandon(t)
		return campaign.Result{}, ctx.Err()
	}
}

// slot is one of the coordinator's own execution slots: until ctx ends
// it takes tasks (see takeForSlot) and runs them in-process against
// their namespace's checkpoint store. Besides the queue's wake-ups it
// looks again every half WorkerTTL, so a fleet that goes silent hands
// its queue over once it turns stale.
func (d *dispatcher) slot(ctx context.Context) {
	tick := time.NewTicker(max(d.workerTTL/2, time.Millisecond))
	defer tick.Stop()
	for ctx.Err() == nil {
		t, wake := d.takeForSlot()
		if t == nil {
			select {
			case <-wake:
			case <-tick.C:
			case <-ctx.Done():
			}
			continue
		}
		res, err := campaign.ExecuteStored(t.ctx, t.job, t.ns.ckpt)
		d.mu.Lock()
		if t.state == taskTaken {
			if err == nil {
				d.met.jobsLocal.Add(1)
			}
			t.state = taskDone
			t.outcome <- taskOutcome{res: res, err: err}
		}
		d.mu.Unlock()
	}
}

// takeForSlot takes the first queued task a slot may run: a slot-only
// task, or any task while no live worker is registered. With none it
// returns the channel that is closed at the queue's next change.
func (d *dispatcher) takeForSlot() (*task, <-chan struct{}) {
	d.mu.Lock()
	defer d.mu.Unlock()
	fleet := d.liveLocked()
	if i := slices.IndexFunc(d.queue, func(t *task) bool { return t.slotOnly || !fleet }); i >= 0 {
		return d.takeLocked(i), nil
	}
	return nil, d.wake
}

// takeLocked removes the i-th task from the queue for a taker.
func (d *dispatcher) takeLocked(i int) *task {
	t := d.queue[i]
	d.queue = slices.Delete(d.queue, i, i+1)
	t.state = taskTaken
	return t
}

// enqueueLocked puts a task on the queue (front for retries, so a
// recovered job overtakes fresh work) and wakes every taker.
func (d *dispatcher) enqueueLocked(t *task, front bool) {
	t.state = taskQueued
	if front {
		d.queue = slices.Insert(d.queue, 0, t)
	} else {
		d.queue = append(d.queue, t)
	}
	close(d.wake)
	d.wake = make(chan struct{})
}

// abandon detaches a task whose campaign stopped waiting. A queued task
// leaves the queue; a leased one stays with its worker, whose next
// heartbeat is told to cancel and whose upload is discarded; one on a
// slot stops with its campaign's context.
func (d *dispatcher) abandon(t *task) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if i := slices.Index(d.queue, t); i >= 0 {
		d.queue = slices.Delete(d.queue, i, i+1)
	}
	t.state = taskDone
}

// requeueLocked returns a leased task to the queue after its lease
// failed (expiry, worker-reported error, rejected upload). Past the
// retry budget only the coordinator's slots may take it.
func (d *dispatcher) requeueLocked(t *task) {
	if t.state != taskTaken {
		return
	}
	if err := t.ctx.Err(); err != nil {
		t.state = taskDone
		t.outcome <- taskOutcome{err: err}
		return
	}
	if t.attempts > d.retries {
		t.slotOnly = true
	} else {
		d.met.leaseRequeues.Add(1)
	}
	d.enqueueLocked(t, true)
}

// --- worker registry ---

// admitLocked takes a polling worker into the registry, or refreshes
// the one it holds under that ID: its capacity comes with every poll.
// Admission prunes the stale workers, since churn (crash and respawn)
// is when dead entries appear.
func (d *dispatcher) admitLocked(id string, capacity int) {
	w, ok := d.workers[id]
	if !ok {
		d.pruneLocked()
		w = &workerState{}
		d.workers[id] = w
		d.met.workersRegistered.Add(1)
	}
	w.capacity = max(capacity, 1)
	d.touchLocked(w)
}

// deregister removes a worker; leases it still holds are re-queued
// immediately rather than waiting out their TTLs, and the slots look
// again, since the fleet may have just left.
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
	close(d.wake)
	d.wake = make(chan struct{})
	return true
}

// pruneLocked evicts workers that went stale with no leases left —
// hard-killed workers never deregister, so without this a server with
// fleet churn would accumulate dead registry entries forever. A stale
// worker still holding leases survives until they expire (expiry
// drives active back to zero).
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

// liveLocked reports whether any live worker is registered: while one
// is, the slots leave the fleet's tasks to it.
func (d *dispatcher) liveLocked() bool {
	for _, w := range d.workers {
		if d.freshLocked(w) {
			return true
		}
	}
	return false
}

// extraCapacity is the fleet's concurrent-job headroom — added to each
// campaign engine's worker count so remote capacity actually raises
// campaign parallelism beyond the coordinator's own slots.
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

// nextLease serves one lease poll. It refuses a poll in another
// protocol version or with an ID outside the name grammar, admits the
// worker (see admitLocked), then blocks up to the poll's wait for a job
// to offer it. A nil lease with nil error means the wait expired empty,
// ctx ended (the poll went away or the server closed), or the worker
// left while its poll was parked (→ 204).
func (d *dispatcher) nextLease(ctx context.Context, req worker.LeaseRequest) (*lease, *task, error) {
	if req.Protocol != worker.ProtocolVersion {
		return nil, nil, fmt.Errorf("worker speaks protocol %d, server speaks %d", req.Protocol, worker.ProtocolVersion)
	}
	if !auth.ValidName(req.WorkerID) {
		return nil, nil, fmt.Errorf("invalid worker id %q (want [a-z0-9._-]{1,64})", req.WorkerID)
	}
	wait := time.Duration(req.WaitMS) * time.Millisecond
	if maxWait := d.workerTTL / 2; wait <= 0 || wait > maxWait {
		wait = maxWait
	}
	timeout := time.NewTimer(wait)
	defer timeout.Stop()
	d.mu.Lock()
	// Admit once, as the poll arrives. The wait only checks that the
	// worker is still registered: a DELETE wakes the poll it parked, and
	// admitting again there would bring the worker back.
	d.admitLocked(req.WorkerID, req.Capacity)
	for {
		w, ok := d.workers[req.WorkerID]
		if !ok {
			d.mu.Unlock()
			return nil, nil, nil
		}
		d.touchLocked(w)
		if i := slices.IndexFunc(d.queue, func(t *task) bool { return !t.slotOnly }); i >= 0 {
			t := d.takeLocked(i)
			t.attempts++
			d.lseq++
			l := &lease{
				id:       fmt.Sprintf("l%s-%06d", d.nonce, d.lseq),
				workerID: req.WorkerID,
				t:        t,
				deadline: time.Now().Add(d.ttl),
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
			d.touch(req.WorkerID)
			return nil, nil, nil
		case <-ctx.Done():
			return nil, nil, nil
		}
		d.mu.Lock()
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
	}
	l.deadline = time.Now().Add(d.ttl)
	l.timer.Reset(d.ttl)
	return worker.HeartbeatResponse{
		Cancel:     l.t.state == taskDone || l.t.ctx.Err() != nil,
		DeadlineMS: d.ttl.Milliseconds(),
	}, true
}

// Uploads that leave their lease as it was: to a lease that expired or
// never existed (410), and to a live one another worker holds (409).
var (
	errLeaseGone = errors.New("lease is gone")
	errNotHolder = errors.New("lease is held by another worker")
)

// complete resolves a lease from a result upload. An upload for a lease
// that is gone (errLeaseGone) or held by another worker (errNotHolder)
// changes nothing. Otherwise the upload is validated against the leased
// job's own identity — its JobKey and result coordinates — before the
// result is accepted; an upload that fails validation counts as a
// failed lease and the job is re-queued.
func (d *dispatcher) complete(leaseID string, up worker.ResultUpload) (worker.ResultResponse, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	l, ok := d.leases[leaseID]
	if !ok {
		d.met.lateUploads.Add(1)
		return worker.ResultResponse{}, errLeaseGone
	}
	if l.workerID != up.WorkerID {
		d.met.resultsRejected.Add(1)
		return worker.ResultResponse{}, errNotHolder
	}
	delete(d.leases, leaseID)
	l.timer.Stop()
	if w, ok := d.workers[up.WorkerID]; ok {
		d.touchLocked(w)
		w.active--
	}
	t := l.t
	if t.state != taskTaken {
		// The campaign stopped waiting; nothing to deliver to.
		return worker.ResultResponse{}, nil
	}
	if up.Error != "" {
		d.met.workerJobFailures.Add(1)
		d.requeueLocked(t)
		return worker.ResultResponse{Requeued: t.state == taskQueued}, nil
	}
	if err := validateUpload(t, up); err != nil {
		d.met.resultsRejected.Add(1)
		d.requeueLocked(t)
		return worker.ResultResponse{Requeued: t.state == taskQueued}, err
	}
	t.state = taskDone
	d.met.jobsRemote.Add(1)
	t.outcome <- taskOutcome{res: *up.Result}
	return worker.ResultResponse{Accepted: true}, nil
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
	return l.t.ns.ckpt, true
}

// --- metrics ---

// rows renders the dispatcher's live gauges for /metrics.
func (d *dispatcher) rows() []row {
	d.mu.Lock()
	connected, capacity := 0, 0
	for _, w := range d.workers {
		if d.freshLocked(w) {
			connected++
			capacity += w.capacity
		}
	}
	queued, active := len(d.queue), len(d.leases)
	d.mu.Unlock()
	return []row{
		{"sdiqd_workers_connected", "Live registered workers.", "gauge", float64(connected)},
		{"sdiqd_worker_capacity", "Total concurrent-job capacity of live workers.", "gauge", float64(capacity)},
		{"sdiqd_lease_queue_depth", "Jobs waiting to be leased.", "gauge", float64(queued)},
		{"sdiqd_leases_active", "Leases currently held by workers.", "gauge", float64(active)},
	}
}
