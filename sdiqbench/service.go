package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/auth"
	"repro/internal/campaign"
	"repro/internal/ckpt"
	"repro/internal/power"
	"repro/internal/serve"
	"repro/internal/worker"
)

// serviceSetups is how many times service_mix stands its stack up per
// run; the median is setup_s.
const serviceSetups = 3

// serviceClients is the closed loop's tenant count: each client waits
// for its campaign's export before submitting the next.
const serviceClients = 2

// Bearer credentials of the stack's principals. The stack lives inside
// the process, so fixed tokens suffice.
var (
	tenantTokens = []auth.Token{
		{Token: "bench-tenant-a", Principal: "tenant-a", Role: auth.RoleTenant},
		{Token: "bench-tenant-b", Principal: "tenant-b", Role: auth.RoleTenant},
	}
	fleetToken = auth.Token{Token: "bench-fleet", Principal: "fleet", Role: auth.RoleWorker}
)

// stack is an in-process sdiqd with auth, durable state, result cache
// and checkpoint store on, its worker fleet — one worker with one lease
// per CPU, so simulations never outnumber CPUs — and one client per
// tenant.
type stack struct {
	dir        string
	srv        *serve.Server
	hs         *http.Server
	served     chan struct{} // closed when the HTTP server's Serve returns
	base       string
	scraper    *http.Client
	clients    []*serve.Client
	workers    []*worker.Worker
	running    sync.WaitGroup // worker Run goroutines
	transports []*http.Transport
}

// transport returns a new keep-alive transport sized for the stack's
// concurrent streams, so connections are reused rather than redialled.
func (s *stack) transport() *http.Transport {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = 16
	s.transports = append(s.transports, tr)
	return tr
}

// startStack stands the service up under dir: server, registered fleet,
// and one checkpoint artifact per warming identity already published.
// A non-nil obs records the fleet's hooks and HTTP calls.
func startStack(ctx context.Context, dir string, z *sizing, slots int, obs *fleetObserver) (*stack, error) {
	a, err := auth.New(append(append([]auth.Token(nil), tenantTokens...), fleetToken))
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &stack{dir: dir, served: make(chan struct{}), base: "http://" + ln.Addr().String()}
	s.srv = serve.New(serve.Config{
		CacheDir: filepath.Join(dir, "cache"),
		CkptDir:  filepath.Join(dir, "ckpt"),
		StateDir: filepath.Join(dir, "state"),
		Workers:  slots,
		Auth:     a,
	})
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() {
		defer close(s.served)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed once stop shuts it down
	}()
	s.scraper = &http.Client{Transport: s.transport()}
	for _, tk := range tenantTokens {
		s.clients = append(s.clients, &serve.Client{Base: s.base, Token: tk.Token, HTTP: &http.Client{Transport: s.transport()}})
	}
	for i := range slots {
		var rt http.RoundTripper = s.transport()
		w := &worker.Worker{
			Server:      s.base,
			Name:        fmt.Sprintf("bench-w%d", i),
			Scratch:     filepath.Join(dir, fmt.Sprintf("w%d", i), "scratch"),
			Ckpt:        filepath.Join(dir, fmt.Sprintf("w%d", i), "ckpt"),
			Concurrency: 1,
			Token:       fleetToken.Token,
		}
		if obs != nil {
			rt = &observedTransport{base: rt, worker: i, obs: obs}
			w.OnLease = func(l worker.Lease) { obs.leased(i, l) }
			w.OnDone = func(l worker.Lease, res campaign.Result, err error) { obs.finished(l, res, err) }
		}
		w.API = &worker.API{Base: s.base, HTTP: &http.Client{Transport: rt}}
		s.workers = append(s.workers, w)
		s.running.Add(1)
		go func() {
			defer s.running.Done()
			_ = w.Run(context.Background()) // stop ends it through Shutdown
		}()
	}
	if err := s.waitWorkers(ctx, slots); err != nil {
		s.stop()
		return nil, err
	}
	if err := warmArtifacts(ctx, filepath.Join(dir, "ckpt"), z, slots); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// stop drains and shuts the stack down, and waits for every goroutine
// it started.
func (s *stack) stop() {
	for _, w := range s.workers {
		w.Shutdown()
	}
	s.running.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.srv.Drain(ctx) // a timed-out drain cancels what is left, which is all stop needs
	_ = s.hs.Shutdown(ctx)
	<-s.served
	s.srv.Close()
	for _, tr := range s.transports {
		tr.CloseIdleConnections()
	}
}

// waitWorkers waits until n workers are registered.
func (s *stack) waitWorkers(ctx context.Context, n int) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		m, err := s.scrape(ctx)
		if err == nil && m["sdiqd_workers_connected"] >= float64(n) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("workers never registered (last scrape error: %v)", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// scrape reads the server's unlabelled /metrics rows.
func (s *stack) scrape(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.scraper.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: %s", resp.Status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		if name, val, ok := strings.Cut(line, " "); ok {
			if v, err := strconv.ParseFloat(val, 64); err == nil {
				out[name] = v
			}
		}
	}
	return out, sc.Err()
}

// warmArtifacts publishes one checkpoint artifact per warming identity
// of the pool into the server's store directory, as a long-running
// service would already hold them: one pool cell per identity runs
// through campaign.ExecuteStored against a handle on that directory.
func warmArtifacts(ctx context.Context, dir string, z *sizing, slots int) error {
	store, err := ckpt.Open(dir)
	if err != nil {
		return err
	}
	pool := z.poolSpec()
	jobs, err := pool.Jobs()
	if err != nil {
		return err
	}
	var first []*campaign.Job
	var keys []string
	seen := map[string]bool{}
	for i := range jobs {
		k, err := campaign.CheckpointKey(&jobs[i])
		if err != nil {
			return err
		}
		if !seen[k] {
			seen[k] = true
			first, keys = append(first, &jobs[i]), append(keys, k)
		}
	}
	errs := make([]error, len(first))
	var wg sync.WaitGroup
	sem := make(chan struct{}, slots)
	for i, job := range first {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			if _, err := campaign.ExecuteStored(ctx, job, store); err != nil {
				errs[i] = err
			} else if !store.Has(keys[i]) {
				errs[i] = fmt.Errorf("no artifact published for %s", job.Bench)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// campaignRecord is one service_mix campaign as its client saw it.
type campaignRecord struct {
	cells    int
	accepted bool // the server took the submission
	// Submit call start and return, end of the event stream, export in
	// hand.
	submit, submitted, streamed, end time.Time
	events                           []serve.Event // traced passes only
	rs                               *campaign.ResultSet
	err                              error
}

// runCampaign submits one campaign, follows its events to the done
// event, and fetches its export.
func runCampaign(ctx context.Context, cl *serve.Client, spec campaign.Spec, traced bool) campaignRecord {
	jobs, _ := spec.Jobs() // the stream only generates valid specs
	rec := campaignRecord{cells: len(jobs), submit: time.Now()}
	sub, err := cl.Submit(ctx, spec)
	rec.submitted = time.Now()
	if err != nil {
		rec.err = err
		return rec
	}
	rec.accepted = true
	var done *serve.Event
	err = cl.Stream(ctx, sub.ID, func(ev serve.Event) error {
		if traced {
			rec.events = append(rec.events, ev)
		}
		if ev.Type == serve.EventDone {
			done = &ev
		}
		return nil
	})
	rec.streamed = time.Now()
	switch {
	case err != nil:
		rec.err = err
	case done == nil:
		rec.err = fmt.Errorf("campaign %s: event stream ended before its done event", sub.ID)
	case done.Error != "":
		rec.err = fmt.Errorf("campaign %s failed: %s", sub.ID, done.Error)
	}
	if rec.err != nil {
		return rec
	}
	rec.rs, rec.err = cl.ResultSet(ctx, sub.ID)
	rec.end = time.Now()
	return rec
}

// servicePass is one closed-loop pass over a stack.
type servicePass struct {
	start, end    time.Time
	recs          []campaignRecord
	perClient     []int
	exhausted     bool               // a client ran out of stream before the time was up
	before, after map[string]float64 // /metrics around the pass
}

func (p *servicePass) delta(name string) float64 { return p.after[name] - p.before[name] }

// drive runs the closed loop: each client submits its share of the
// seeded stream, one campaign at a time, until the measuring time is up
// — or, given per-client counts, exactly that many campaigns each.
func drive(ctx context.Context, s *stack, specs []campaign.Spec, opt options, counts []int, traced bool) (*servicePass, error) {
	p := &servicePass{}
	var err error
	if p.before, err = s.scrape(ctx); err != nil {
		return nil, err
	}
	per := make([][]campaignRecord, serviceClients)
	ran := make([]bool, serviceClients) // stream ran out before the deadline
	p.start = time.Now()
	deadline := p.start.Add(time.Duration(opt.seconds) * time.Second)
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := c; ; j += serviceClients {
				if counts != nil && len(per[c]) == counts[c] || counts == nil && !time.Now().Before(deadline) {
					return
				}
				if j >= len(specs) {
					ran[c] = true
					return
				}
				per[c] = append(per[c], runCampaign(ctx, s.clients[c], specs[j], traced))
			}
		}()
	}
	wg.Wait()
	p.end = time.Now()
	if p.after, err = s.scrape(ctx); err != nil {
		return nil, err
	}
	for c := range per {
		p.perClient = append(p.perClient, len(per[c]))
		p.recs = append(p.recs, per[c]...)
		p.exhausted = p.exhausted || ran[c]
	}
	return p, nil
}

// runService measures service_mix: the stack set up several times, an
// untraced closed-loop pass for the end-to-end metrics, and on a traced
// run a pass of the same campaigns over a fresh traced stack.
func runService(ctx context.Context, opt options) (*outcome, error) {
	z := opt.size
	var ref *reference
	if z.refs {
		var err error
		if ref, err = loadReference("service_mix", z.serviceBudget); err != nil {
			return nil, err
		}
	}
	root, err := os.MkdirTemp(opt.work, "service_mix-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	out := newOutcome(ref)
	specs := z.serviceStream(opt.seed)

	setups := make([]float64, serviceSetups)
	var s *stack
	defer func() {
		if s != nil {
			s.stop()
		}
	}()
	for i := range setups {
		if s != nil {
			s.stop()
			s = nil
		}
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		if s, err = startStack(ctx, filepath.Join(root, fmt.Sprintf("stack-%d", i)), z, opt.slots, nil); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups[i] = time.Since(t0).Seconds()
	}

	// The host is probed around the closed loop, with the stack idle.
	var probes []float64
	for range 3 {
		probes = append(probes, probeHost(opt.slots))
	}
	plain, err := drive(ctx, s, specs, opt, nil, false)
	if err != nil {
		return nil, err
	}
	for range 3 {
		probes = append(probes, probeHost(opt.slots))
	}
	serviceEndToEnd(out, plain, z.serviceBudget, median(setups), hostScale(out, probes))
	put(out.extra, "peak_rss_mb", peakRSSMB(), "MB")
	out.notes["sampled_ipc_err_pct"] = "sweep_sampled only: service cells have no stored exact-mode reference"
	if !opt.traced {
		return out, nil
	}
	s.stop()
	obs := &fleetObserver{leases: map[string]*leaseRecord{}}
	if s, err = startStack(ctx, filepath.Join(root, "stack-traced"), z, opt.slots, obs); err != nil {
		return nil, err
	}
	traced, err := drive(ctx, s, specs, opt, plain.perClient, true)
	if err != nil {
		return nil, err
	}
	serviceCheck(out, traced)
	return out, servicePerLayer(out, s, plain, traced, obs, opt.slots)
}

// serviceCheck verifies every exported cell and the server's counters,
// counting operations and failures.
func serviceCheck(out *outcome, p *servicePass) (cells int64) {
	var requested float64
	for _, r := range p.recs {
		out.attempted += int64(r.cells) + 1
		if r.accepted {
			requested += float64(r.cells)
		}
		if r.err != nil {
			out.failed++
			continue
		}
		for i := range r.rs.Results {
			cells++
			if !out.check.check(&r.rs.Results[i]) {
				out.failed++
			}
		}
	}
	// Failed jobs, refused requests and failed or abandoned leases.
	for _, name := range []string{
		"sdiqd_jobs_failed_total", "sdiqd_auth_failures_total", "sdiqd_results_rejected_total",
		"sdiqd_late_uploads_total", "sdiqd_worker_job_failures_total",
		"sdiqd_lease_requeues_total", "sdiqd_jobs_fellback_total",
	} {
		if d := p.delta(name); d != 0 {
			out.failed += int64(d)
			out.notes[name] = fmt.Sprintf("%g during the pass", d)
		}
	}
	// Every requested cell is executed, served from the cache or shared
	// in flight; every execution ran on the fleet or locally.
	served := p.delta("sdiqd_jobs_executed_total") + p.delta("sdiqd_job_cache_hits_total") + p.delta("sdiqd_job_dedup_hits_total")
	if served != requested {
		out.failed++
		out.notes["cells_unaccounted"] = fmt.Sprintf("%g requested, %g executed or served", requested, served)
	}
	if ex, rl := p.delta("sdiqd_jobs_executed_total"), p.delta("sdiqd_jobs_remote_total")+p.delta("sdiqd_jobs_local_total"); ex != rl {
		out.failed++
		out.notes["executions_unaccounted"] = fmt.Sprintf("%g executed, %g run remote or local", ex, rl)
	}
	if p.exhausted {
		out.notes["stream"] = "a client ran out of campaigns before the time was up: widen the cell pool"
	}
	return cells
}

// serviceEndToEnd derives the untraced pass's end-to-end metrics from
// its campaigns, the median set-up time and the host scale.
func serviceEndToEnd(out *outcome, p *servicePass, budget int64, setup, scale float64) {
	cells := serviceCheck(out, p)
	var lat []float64
	for _, r := range p.recs {
		if r.err == nil {
			lat = append(lat, r.end.Sub(r.submit).Seconds())
		}
	}
	atReference(out, scale, setup, float64(cells*budget)/p.end.Sub(p.start).Seconds()/1e6, lat)
}

// fleetObserver records a traced pass's fleet activity from outside the
// workers: their OnLease/OnDone hooks and every HTTP call they make.
type fleetObserver struct {
	mu     sync.Mutex
	leases map[string]*leaseRecord // by lease ID
	calls  []httpCall
}

type leaseRecord struct {
	worker       int
	job          string // job ID
	leased, done time.Time
	res          campaign.Result
	err          error
}

type httpCall struct {
	worker     int
	method     string
	path       string
	start, end time.Time
	bytes      int64 // request body of a PUT, response body otherwise
}

func (o *fleetObserver) leased(w int, l worker.Lease) {
	job := l.Job.Job()
	now := time.Now()
	o.mu.Lock()
	defer o.mu.Unlock()
	o.leases[l.ID] = &leaseRecord{worker: w, job: job.ID(), leased: now}
}

func (o *fleetObserver) finished(l worker.Lease, res campaign.Result, err error) {
	now := time.Now()
	o.mu.Lock()
	defer o.mu.Unlock()
	if r := o.leases[l.ID]; r != nil {
		r.done, r.res, r.err = now, res, err
	}
}

func (o *fleetObserver) record(c httpCall) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.calls = append(o.calls, c)
}

// observedTransport times a worker's HTTP calls; a call ends when its
// response body is closed.
type observedTransport struct {
	base   http.RoundTripper
	worker int
	obs    *fleetObserver
}

func (t *observedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	call := httpCall{worker: t.worker, method: req.Method, path: req.URL.Path, start: time.Now()}
	if req.Method == http.MethodPut {
		call.bytes = req.ContentLength
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		call.end = time.Now()
		t.obs.record(call)
		return nil, err
	}
	resp.Body = &observedBody{ReadCloser: resp.Body, call: call, obs: t.obs}
	return resp, nil
}

type observedBody struct {
	io.ReadCloser
	call httpCall
	obs  *fleetObserver
	once sync.Once
}

func (b *observedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if b.call.method != http.MethodPut {
		b.call.bytes += int64(n)
	}
	return n, err
}

func (b *observedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.call.end = time.Now()
		b.obs.record(b.call)
	})
	return err
}

// servicePerLayer derives the traced pass's per-layer metrics and trace:
// client-side spans per campaign, server event timestamps, worker hook
// and HTTP spans, and /metrics deltas. Slot time is the fleet's: wall ×
// workers, idle being the workers' lease long-polls.
func servicePerLayer(out *outcome, s *stack, plain, p *servicePass, obs *fleetObserver, slots int) error {
	out.zeroLayers()
	tr := &tracer{epoch: p.start}
	n := float64(max(len(p.recs), 1))
	type stamp struct {
		job string
		at  time.Time
	}
	var (
		submitMS, exportMS, queueMS, jobMS, waitMS []float64
		running, executedDone                      []stamp
		requested, busyNS                          float64
		deliveredJobs                              []*campaign.Job
		params                                     power.Params
	)
	for i, r := range p.recs {
		if r.err != nil {
			continue
		}
		trace := fmt.Sprintf("campaign-%d", i)
		root := tr.add(0, trace, "serve.campaign", tr.ns(r.submit), tr.ns(r.end), false)
		tr.add(root, trace, "serve.submit", tr.ns(r.submit), tr.ns(r.submitted), false)
		tr.add(root, trace, "serve.stream", tr.ns(r.submitted), tr.ns(r.streamed), false)
		tr.add(root, trace, "serve.export", tr.ns(r.streamed), tr.ns(r.end), false)
		submitMS = append(submitMS, nsMS(r.submitted.Sub(r.submit).Nanoseconds()))
		exportMS = append(exportMS, nsMS(r.end.Sub(r.streamed).Nanoseconds()))
		requested += float64(r.cells)

		var submittedAt, firstRun time.Time
		started := map[string]time.Time{}
		for _, ev := range r.events {
			switch {
			case ev.Type == serve.EventSubmitted:
				submittedAt = ev.Time
			case ev.Type == serve.EventJob && ev.Job.State == campaign.JobRunning:
				started[ev.Job.ID] = ev.Time
				running = append(running, stamp{ev.Job.ID, ev.Time})
				if firstRun.IsZero() {
					firstRun = ev.Time
				}
				waitMS = append(waitMS, nsMS(ev.Time.Sub(submittedAt).Nanoseconds()))
			case ev.Type == serve.EventJob && ev.Job.State == campaign.JobDone && !ev.Job.Cached && !ev.Job.Dedup:
				executedDone = append(executedDone, stamp{ev.Job.ID, ev.Time})
				if t, ok := started[ev.Job.ID]; ok {
					jobMS = append(jobMS, nsMS(ev.Time.Sub(t).Nanoseconds()))
				}
			}
		}
		if !firstRun.IsZero() {
			queueMS = append(queueMS, nsMS(firstRun.Sub(r.submit).Nanoseconds()))
		}
		jobs, err := r.rs.Spec.Jobs()
		if err != nil {
			return err
		}
		params = r.rs.Spec.Params
		for i := range jobs {
			deliveredJobs = append(deliveredJobs, &jobs[i])
		}
	}

	// Fleet spans: each lease, with the HTTP calls made inside it and
	// the execution its result's stamps bracket; uploads between leases;
	// long-polls are the fleet's measured idle.
	wallNS := p.end.Sub(p.start).Nanoseconds()
	leases := make([]*leaseRecord, 0, len(obs.leases))
	for _, lr := range obs.leases {
		if !lr.done.IsZero() {
			leases = append(leases, lr)
		}
	}
	sort.Slice(leases, func(i, j int) bool { return leases[i].leased.Before(leases[j].leased) })
	tops := map[int]bool{}
	leaseSpan := map[*leaseRecord]int{}
	var (
		execMS, leaseWaitMS, uploadMS             []float64
		leaseNS, gen, hints, windows, detailNS    float64
		sampledInsts, totalInsts, fetched, pushed float64
	)
	for i, lr := range leases {
		trace := fmt.Sprintf("lease-%d", i)
		id := tr.add(0, trace, "worker.lease", tr.ns(lr.leased), tr.ns(lr.done), false)
		tops[id] = true
		leaseSpan[lr] = id
		execMS = append(execMS, nsMS(lr.done.Sub(lr.leased).Nanoseconds()))
		leaseNS += float64(lr.done.Sub(lr.leased).Nanoseconds())
		res := lr.res
		if lr.err == nil && !res.StartedAt.Before(lr.leased) {
			st, f := tr.ns(res.StartedAt), tr.ns(res.FinishedAt)
			g := st + msNS(res.GenMS)
			c := g + msNS(res.CompileMS)
			tr.add(id, trace, "workload.gen", st, g, false)
			if res.CompileMS > 0 {
				tr.add(id, trace, "core.compile", g, c, false)
			}
			tr.add(id, trace, "sample.resume", c, f, false)
			gen += res.GenMS
			hints += float64(res.Hints)
			detailNS += float64(f - c)
			if m := res.Sampled; m != nil {
				windows += float64(m.Windows)
				sampledInsts += float64(m.SampledInsts)
				totalInsts += float64(m.TotalInsts)
			}
		}
		// Matching server events: the job's running event before the
		// lease, its executed done event after the result left.
		var run, done time.Time
		for _, st := range running {
			if st.job == lr.job && !st.at.After(lr.leased) && st.at.After(run) {
				run = st.at
			}
		}
		for _, st := range executedDone {
			if st.job == lr.job && !st.at.Before(lr.done) && (done.IsZero() || st.at.Before(done)) {
				done = st.at
			}
		}
		if !run.IsZero() {
			leaseWaitMS = append(leaseWaitMS, nsMS(lr.leased.Sub(run).Nanoseconds()))
		}
		if !done.IsZero() {
			uploadMS = append(uploadMS, nsMS(done.Sub(lr.done).Nanoseconds()))
			busyNS += float64(done.Sub(lr.leased).Nanoseconds())
		}
	}
	var idle int64
	for i, c := range obs.calls {
		trace := fmt.Sprintf("call-%d", i)
		start, end := tr.ns(c.start), tr.ns(c.end)
		var enclosing int
		for _, lr := range leases {
			if lr.worker == c.worker && !c.start.Before(lr.leased) && !c.start.After(lr.done) {
				enclosing = leaseSpan[lr]
			}
		}
		switch {
		case c.path == "/v1/leases":
			idle += max(0, min(end, wallNS)-max(start, 0))
			tr.add(0, trace, "worker.poll", start, end, false)
		case strings.HasSuffix(c.path, "/result"):
			tops[tr.add(0, trace, "serve.upload", start, end, false)] = true
		case strings.HasSuffix(c.path, "/heartbeat") && enclosing != 0:
			tr.add(enclosing, trace, "worker.heartbeat", start, end, false)
		case strings.HasPrefix(c.path, "/v1/checkpoints/") && enclosing != 0:
			name := "ckpt.fetch"
			if c.method == http.MethodPut {
				name, pushed = "ckpt.push", pushed+float64(c.bytes)
			} else {
				fetched += float64(c.bytes)
			}
			tr.add(enclosing, trace, name, start, end, false)
		}
	}

	get, putMS, err := timeCache(filepath.Join(s.dir, "cache"), params, deliveredJobs)
	if err != nil {
		return err
	}
	executed := p.delta("sdiqd_jobs_executed_total")
	out.layer("campaign.executed", executed/n)
	out.layer("campaign.cache_hits", p.delta("sdiqd_job_cache_hits_total")/n)
	out.layer("campaign.dedup_hits", p.delta("sdiqd_job_dedup_hits_total")/n)
	out.layer("campaign.failed", p.delta("sdiqd_jobs_failed_total")/n)
	out.layer("campaign.job_ms.p50", median(jobMS))
	tailMetric(out.perLayer, out.notes, "campaign.job_ms.tail", jobMS, "ms")
	out.layer("campaign.wait_ms.p50", median(waitMS))
	out.layer("campaign.busy_frac", busyNS/float64(wallNS*int64(slots)))
	out.layer("campaign.cache_get_ms.p50", median(get))
	out.layer("campaign.cache_put_ms.p50", median(putMS))
	out.layer("workload.gen_ms", gen/n)
	out.layer("core.hints", hints/n)
	out.layer("sample.windows", windows/n)
	if totalInsts > 0 {
		out.layer("sample.detailed_frac", sampledInsts/totalInsts)
	}
	out.layer("sample.detail_ms", detailNS/1e6/n)
	out.layer("ckpt.generated", p.delta("sdiqd_ckpt_generated_total")/n)
	out.layer("ckpt.hits", p.delta("sdiqd_ckpt_hits_total")/n)
	out.layer("ckpt.misses", p.delta("sdiqd_ckpt_misses_total")/n)
	if h, m := p.delta("sdiqd_ckpt_hits_total"), p.delta("sdiqd_ckpt_misses_total"); h+m > 0 {
		out.layer("ckpt.hit_ratio", h/(h+m))
	}
	out.layer("ckpt.bytes_written", pushed/n)
	out.layer("ckpt.bytes_read", fetched/n)
	out.notes["ckpt.bytes_written"] = "artifact bytes the fleet pushed to the server; ckpt.bytes_read, bytes it fetched"

	out.layer("serve.cells_requested", requested/n)
	out.layer("serve.submit_ms.p50", median(submitMS))
	out.layer("serve.export_ms.p50", median(exportMS))
	out.layer("serve.queue_ms.p50", median(queueMS))
	out.layer("serve.lease_wait_ms.p50", median(leaseWaitMS))
	out.layer("serve.upload_ms.p50", median(uploadMS))
	out.layer("serve.jobs_executed", executed/n)
	out.layer("serve.jobs_remote", p.delta("sdiqd_jobs_remote_total")/n)
	out.layer("serve.jobs_local", p.delta("sdiqd_jobs_local_total")/n)
	out.layer("serve.jobs_failed", p.delta("sdiqd_jobs_failed_total")/n)
	out.layer("serve.cache_hits", p.delta("sdiqd_job_cache_hits_total")/n)
	out.layer("serve.dedup_hits", p.delta("sdiqd_job_dedup_hits_total")/n)
	out.layer("serve.leases_granted", p.delta("sdiqd_leases_granted_total")/n)
	out.layer("serve.lease_requeues", p.delta("sdiqd_lease_requeues_total")/n)
	out.layer("serve.jobs_fellback", p.delta("sdiqd_jobs_fellback_total")/n)
	shipped := p.delta("sdiqd_ckpt_bytes_shipped_total")
	out.layer("serve.ckpt_bytes_shipped", shipped/n)
	if executed > 0 {
		out.layer("serve.ckpt_bytes_per_job", shipped/executed)
	}
	out.layer("worker.leases", float64(len(leases))/n)
	out.layer("worker.exec_ms.p50", median(execMS))
	out.layer("worker.busy_frac", leaseNS/float64(wallNS*int64(slots)))
	wal := p.delta("sdiqd_wal_appends_total")
	out.layer("store.wal_appends", wal/n)
	if requested > 0 {
		out.layer("store.appends_per_job", wal/requested)
	}
	out.layer("auth.failures", p.delta("sdiqd_auth_failures_total")/n)

	out.layer("trace.overhead_s", p.end.Sub(p.start).Seconds()-plain.end.Sub(plain.start).Seconds())
	out.layer("trace.spans", float64(len(tr.spans)))
	tr.account(tops, wallNS*int64(slots), idle).report(out)
	out.spans = tr.spans
	return nil
}
