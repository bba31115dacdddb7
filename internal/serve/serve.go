// Package serve is the campaign service: a long-running HTTP/JSON
// server (cmd/sdiqd) that accepts campaign.Spec submissions from many
// clients, puts their cache-missed jobs on one job queue over a single
// on-disk result cache — drained by the remote worker fleet and by the
// server's own bounded slots — deduplicates identical in-flight jobs
// fleet-wide (singleflight on the job content hash), streams per-job
// progress as NDJSON or server-sent events, and serves finished
// campaigns through the exact JSON/CSV exporters the CLI uses locally —
// so a server-side export is byte-identical to the same spec run with
// `sdiq -export`.
//
// API (all JSON):
//
//	POST /v1/campaigns               submit a campaign.Spec → 202 {id,...}
//	                                 (413 over maxCampaignJobs jobs or maxBudget)
//	GET  /v1/campaigns               list campaigns
//	GET  /v1/campaigns/{id}          status snapshot with per-job detail
//	GET  /v1/campaigns/{id}/events   NDJSON stream (?format=sse for SSE)
//	GET  /v1/campaigns/{id}/export   finished ResultSet (?format=csv|json)
//	GET  /metrics                    Prometheus text metrics
//	GET  /healthz                    liveness
package serve

import (
	"cmp"
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/auth"
	"repro/internal/campaign"
	"repro/internal/ckpt"
	"repro/internal/power"
	"repro/internal/store"
	"repro/internal/wire"
)

// Config parameterises a Server.
type Config struct {
	// CacheDir is the shared on-disk result cache ("" disables caching,
	// which also disables cross-campaign result reuse — set it).
	CacheDir string
	// CkptDir is the shared checkpoint artifact store ("" disables it):
	// sampled sweep cells then share one functional-warming pass per
	// warming identity instead of each recomputing it, locally and
	// across the worker fleet (artifacts ship over /v1/checkpoints).
	CkptDir string
	// Workers is how many of the coordinator's own slots run jobs
	// in-process: every job while no worker is live, and only jobs past
	// JobRetries while one is. 0 means GOMAXPROCS.
	Workers int
	// QuotaPerClient caps campaigns a single client may have active at
	// once; 0 means unlimited.
	QuotaPerClient int

	// Remote worker pool (all zero values take defaults):

	// LeaseTTL is how long a worker's job lease lives without a
	// heartbeat before the worker is presumed dead and the job is
	// re-queued. Default 15s.
	LeaseTTL time.Duration
	// WorkerTTL is the staleness window after which a silent registered
	// worker stops counting as connected; with none connected, the slots
	// take every job. Default: LeaseTTL.
	WorkerTTL time.Duration
	// JobRetries is how many times a job is re-leased after a failed
	// lease (expiry, worker error, rejected upload); after that only the
	// coordinator's slots run it. Default 2; negative means no retries.
	JobRetries int

	// Durability and state bounds (all zero values take defaults):

	// StateDir roots the durable control-plane state: each campaign's
	// submission record, written at submit, and its terminal record,
	// written once when it ends. "" disables durability — a restart then
	// forgets all campaigns, exactly the pre-durability behaviour.
	StateDir string
	// CacheMaxBytes bounds each on-disk store — every result cache and
	// every checkpoint store — evicting least recently used entries every
	// minute; 0 means unbounded.
	CacheMaxBytes int64

	// Identity and multi-tenancy:

	// Auth, when non-nil, turns authentication on: every /v1/* request
	// must present a bearer token resolving to a principal of the
	// route's role (tenant for campaign endpoints, worker for the lease
	// and checkpoint protocol), and client identity comes from the
	// authenticated principal, never a header. Nil leaves the service
	// open, exactly the pre-auth behaviour.
	Auth *auth.Authenticator
	// TenantIsolation gives each client its own namespace — result
	// cache and checkpoint store under tenants/<client> of CacheDir and
	// CkptDir, plus its own in-flight dedup: tenants then share no result
	// or artifact — each pays for its own simulations — and CacheMaxBytes
	// bounds each tenant's stores separately. A lease names its
	// campaign's namespace, and a worker keeps its own stores per
	// namespace, so isolation holds across the fleet too.
	TenantIsolation bool
}

// Server owns the campaign registry, the job queue and the slots that
// drain it in-process, the tenants' namespaces and the metrics. Create
// with New, expose with Handler, stop with Drain and then Close.
type Server struct {
	cfg   Config
	met   metrics
	disp  *dispatcher
	store *store.Store // nil when StateDir is unset or unusable
	// shared is every tenant's namespace when isolation is off, open
	// from boot; nil under TenantIsolation.
	shared *namespace

	ctx     context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup // running campaigns
	slotsWG sync.WaitGroup // running slots

	mu           sync.Mutex
	draining     bool // guarded by mu so no submission can slip past Drain
	seq          int
	campaigns    map[string]*campaignRun
	order        list.List // of *campaignRun, in submission order
	finishedJobs int       // the ended campaigns' charge; maxFinishedJobs bounds it

	// tenants is per-client accounting plus each client's namespace.
	// Guarded by tmu (not mu: namespaces are opened lazily on paths that
	// also take mu, always in the order mu, then tmu).
	tmu     sync.Mutex
	tenants map[string]*tenantState
}

// tenantState is one client's accounting and namespace.
type tenantState struct {
	submitted, done, failed int64 // guarded by Server.tmu
	active                  int   // running campaigns, which QuotaPerClient bounds; guarded by Server.tmu
	ns                      *namespace
}

// namespace is what a tenant's campaigns share: one result cache, one
// checkpoint store and one in-flight dedup group. It is also their
// campaign.Runner, pinning every job, on a slot or leased, to its
// checkpoint store. With isolation off every tenant holds the server's
// one shared namespace; with it on, each tenant has its own.
type namespace struct {
	name     string          // "" for the shared namespace, else the tenant's
	cacheDir string          // the engines' CacheDir ("" = no cache)
	cache    *campaign.Cache // GC handle on cacheDir; nil when off
	ckpt     *ckpt.Store     // nil when CkptDir is unset or unusable
	flight   campaign.Flight
	disp     *dispatcher
}

// RunJob queues a cache-missed job on the dispatcher, in the namespace.
func (ns *namespace) RunJob(ctx context.Context, job *campaign.Job, key string, params power.Params) (campaign.Result, error) {
	return ns.disp.runJob(ctx, job, key, params, ns)
}

// maxCampaignJobs is the most jobs one campaign may expand to. A spec
// over it is refused (413) before its jobs are expanded, at submission
// and again at recovery: the roster, the event log and the engine all
// hold every job of a campaign in memory.
const maxCampaignJobs = 10_000

// maxFinishedJobs bounds the registered finished campaigns, server-wide,
// at finish and at recovery, each charged its jobs plus
// campaignFixedJobs.
const maxFinishedJobs = 50_000

// campaignFixedJobs is a finished campaign's own heap in jobs: a job
// holds about 1.3 KB and a one-job campaign 3.3 KB, so the campaign
// itself about 2.0 KB, 1.5 jobs, rounded up. The finished campaigns then
// hold at most about 65 MB, whatever their sizes.
const campaignFixedJobs = 2

// charge is a finished campaign of n jobs' share of maxFinishedJobs.
func charge(n int) int { return n + campaignFixedJobs }

// Any admissible campaign fits under maxFinishedJobs, or this fails to
// compile.
const _ = uint(maxFinishedJobs - (maxCampaignJobs + campaignFixedJobs))

// maxBudget caps the committed instructions per job, ten times the
// paper's 100M: a job's budget is how long it holds a slot or a lease.
const maxBudget = 1_000_000_000

// campaignRun is one submitted campaign: its identity and name, plus
// its progress — roster, counters, event log and outcome. The spec
// itself goes to run, and the ResultSet keeps the one copy that
// outlives the campaign.
type campaignRun struct {
	*progress
	client    string
	name      string // the spec's
	submitted time.Time
	ns        *namespace    // the owner's namespace
	elem      *list.Element // its place in Server.order; guarded by Server.mu
	ended     bool          // finished in the registry, so evictable; guarded by Server.mu
}

// New returns a ready Server, its slots running; callers then serve
// s.Handler().
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:       cfg,
		met:       metrics{start: time.Now()},
		ctx:       ctx,
		cancel:    cancel,
		campaigns: make(map[string]*campaignRun),
		tenants:   make(map[string]*tenantState),
	}
	s.disp = newDispatcher(cfg, &s.met)
	for range cfg.Workers {
		s.slotsWG.Add(1)
		go func() {
			defer s.slotsWG.Done()
			s.disp.slot(ctx)
		}()
	}
	if !cfg.TenantIsolation {
		s.shared = s.openNamespace("")
	}
	var err error
	if s.store, err = store.Open(cfg.StateDir); err != nil {
		log.Printf("sdiqd: durable state disabled: %v", err)
	}
	if s.store != nil && cfg.CacheDir == "" {
		log.Printf("sdiqd: durable state without a result cache: a campaign recovered without a terminal record will re-simulate its finished jobs")
	}
	s.recover()
	s.startJanitor()
	return s
}

// recover reads the durable state back into the registry, in
// submission order. A campaign whose terminal record holds its outcome,
// an error or results, is restored from it as it ended; nothing runs.
// Any other campaign re-runs its spec (one the crash stopped, or one an
// older build finished cleanly without recording results): the engine
// turns every already-finished job into a cache hit and re-simulates
// only the rest. A spec over maxCampaignJobs or maxBudget, or results
// ReadJSON would refuse, are skipped with a log line. Finished
// campaigns charged over maxFinishedJobs leave oldest first, with their
// records, as at a finish.
func (s *Server) recover() {
	if s.store == nil {
		return
	}
	recs, err := s.store.Recover()
	if err != nil {
		log.Printf("sdiqd: state recovery (intact campaigns still recovered): %v", err)
	}
	// Recover lists IDs by name; "c%04d" grows a digit past c9999.
	slices.SortStableFunc(recs, func(a, b store.Recovered) int {
		return cmp.Or(cmp.Compare(len(a.Meta.ID), len(b.Meta.ID)), strings.Compare(a.Meta.ID, b.Meta.ID))
	})
	counts := make([]int, len(recs))               // 0: skipped
	sets := make([]*campaign.ResultSet, len(recs)) // the recorded results
	finished := 0
	for i, rec := range recs {
		var n int
		if _, err := fmt.Sscanf(rec.Meta.ID, "c%d", &n); err == nil && n > s.seq {
			s.seq = n // never reissue a recovered campaign's ID
		}
		counts[i], err = admit(&rec.Meta.Spec)
		if err == nil && rec.Snap.Done && rec.Snap.Results != nil {
			sets[i], err = campaign.NewResultSet(rec.Meta.Spec, rec.Snap.Results)
		}
		if err != nil {
			counts[i] = 0
			log.Printf("sdiqd: recover %s: skipped: %v", rec.Meta.ID, err)
		} else if rec.Snap.Done {
			finished += charge(counts[i])
		}
	}
	for i, rec := range recs {
		if counts[i] == 0 {
			continue
		}
		// As at a finish, the oldest finished campaigns leave, unexpanded,
		// while the rest hold more than the bound.
		if rec.Snap.Done && finished > maxFinishedJobs {
			finished -= charge(counts[i])
			log.Printf("sdiqd: recover %s: removed: the finished campaigns are charged over %d jobs", rec.Meta.ID, maxFinishedJobs)
			_ = s.store.Remove(rec.Meta.ID) // a record left behind goes at the next boot
			s.met.campaignsEvicted.Add(1)
			continue
		}
		jobs, _ := rec.Meta.Spec.Jobs() // admit validated the spec
		// Durable records from before name validation may carry a client
		// that the grammar now refuses (an IPv6 remote address, say);
		// sanitize before the name reaches quota maps or tenant paths.
		client := rec.Meta.Client
		if !auth.ValidName(client) {
			client = sanitizeClient(client)
		}
		rc := &campaignRun{
			progress:  newProgress(rec.Meta.ID, jobs),
			client:    client,
			name:      rec.Meta.Spec.Name,
			submitted: rec.Meta.Submitted,
			ns:        s.tenant(client).ns,
			ended:     rec.Snap.Done && (rec.Snap.Error != "" || sets[i] != nil),
		}
		_ = s.register(rc, 0) // no quota, and nothing drains before New returns
		rc.begin()
		if !rc.ended {
			go s.run(rc, rec.Meta.Spec)
			continue
		}
		var cerr error
		if rec.Snap.Error != "" {
			cerr = errors.New(rec.Snap.Error)
		}
		rc.restore(rec.Snap.Status)
		rc.finish(rec.Snap.Finished, sets[i], cerr, nil)
	}
}

// startJanitor enforces the store byte bound every minute until the
// server closes. No bound, no goroutine.
func (s *Server) startJanitor() {
	if s.cfg.CacheMaxBytes <= 0 {
		return
	}
	go func() {
		t := time.NewTicker(time.Minute)
		defer t.Stop()
		for {
			select {
			case <-s.ctx.Done():
				return
			case <-t.C:
				s.gcOnce()
			}
		}
	}()
}

// gcOnce trims every namespace's result cache and checkpoint store to
// the byte bound, LRU first — each separately, so under isolation one
// tenant's churn cannot evict another's results or artifacts.
func (s *Server) gcOnce() {
	for _, ns := range s.namespaces() {
		if n, _, err := ns.cache.GC(s.cfg.CacheMaxBytes); err != nil {
			log.Printf("sdiqd: result cache gc: %v", err)
		} else if n > 0 {
			s.met.cacheEvictions.Add(int64(n))
		}
		if _, _, err := ns.ckpt.GC(s.cfg.CacheMaxBytes); err != nil {
			log.Printf("sdiqd: checkpoint store gc: %v", err)
		}
	}
}

// tenant returns (creating if needed) the client's accounting record
// and namespace: the shared one, or under isolation a namespace of its
// own, opened lazily.
func (s *Server) tenant(client string) *tenantState {
	s.tmu.Lock()
	defer s.tmu.Unlock()
	ts, ok := s.tenants[client]
	if !ok {
		ts = &tenantState{ns: s.shared}
		if ts.ns == nil {
			ts.ns = s.openNamespace(client)
		}
		s.tenants[client] = ts
	}
	return ts
}

// openNamespace opens a namespace: the shared one ("") has its stores
// at CacheDir and CkptDir, a tenant's at tenants/<name> under each. A
// store that fails to open degrades to off rather than refusing to
// serve: both are accelerators, not correctness dependencies. But say
// so — a typo'd -ckpt silently costing the fleet its shared warming is
// a debugging trap.
func (s *Server) openNamespace(name string) *namespace {
	ns := &namespace{name: name, disp: s.disp}
	sub := ""
	if name != "" {
		sub = filepath.Join("tenants", name)
	}
	var err error
	if s.cfg.CacheDir != "" {
		ns.cacheDir = filepath.Join(s.cfg.CacheDir, sub)
		if ns.cache, err = campaign.OpenCache(ns.cacheDir); err != nil {
			log.Printf("sdiqd: result cache GC disabled: %v", err)
		}
	}
	if s.cfg.CkptDir != "" {
		if ns.ckpt, err = ckpt.Open(filepath.Join(s.cfg.CkptDir, sub)); err != nil {
			log.Printf("sdiqd: checkpoint store disabled: %v", err)
		}
	}
	return ns
}

// namespaces lists every namespace once: the shared one, which exists
// from boot, or each known tenant's own.
func (s *Server) namespaces() []*namespace {
	if s.shared != nil {
		return []*namespace{s.shared}
	}
	s.tmu.Lock()
	defer s.tmu.Unlock()
	out := make([]*namespace, 0, len(s.tenants))
	for _, ts := range s.tenants {
		out = append(out, ts.ns)
	}
	return out
}

// Handler returns the service's HTTP routes. With Config.Auth set,
// every /v1/* route is gated on a bearer token of the route's role
// (tenant for the campaign surface — SSE and export included — worker
// for the lease protocol and checkpoint shipping); /metrics takes an
// optional token and /healthz stays open for load balancers.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/campaigns", s.requireRole(auth.RoleTenant, s.handleSubmit))
	mux.HandleFunc("GET /v1/campaigns", s.requireRole(auth.RoleTenant, s.handleList))
	mux.HandleFunc("GET /v1/campaigns/{id}", s.requireRole(auth.RoleTenant, s.handleStatus))
	mux.HandleFunc("GET /v1/campaigns/{id}/events", s.requireRole(auth.RoleTenant, s.handleEvents))
	mux.HandleFunc("GET /v1/campaigns/{id}/export", s.requireRole(auth.RoleTenant, s.handleExport))
	mux.HandleFunc("DELETE /v1/campaigns/{id}", s.requireRole(auth.RoleTenant, s.handleDelete))
	mux.HandleFunc("DELETE /v1/workers/{id}", s.requireRole(auth.RoleWorker, s.handleWorkerDeregister))
	mux.HandleFunc("POST /v1/leases", s.requireRole(auth.RoleWorker, s.handleLease))
	mux.HandleFunc("POST /v1/leases/{id}/heartbeat", s.requireRole(auth.RoleWorker, s.handleHeartbeat))
	mux.HandleFunc("POST /v1/leases/{id}/result", s.requireRole(auth.RoleWorker, s.handleLeaseResult))
	mux.HandleFunc("GET /v1/checkpoints/{key}", s.requireRole(auth.RoleWorker, s.handleCkptGet))
	mux.HandleFunc("PUT /v1/checkpoints/{key}", s.requireRole(auth.RoleWorker, s.handleCkptPut))
	mux.HandleFunc("GET /metrics", s.optionalAuth(s.handleMetrics))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// Drain stops accepting submissions and waits for running campaigns.
// If ctx ends first the remaining campaigns are cancelled (they stop at
// job granularity) and ctx's error is returned. Drain is what SIGTERM
// triggers in cmd/sdiqd. The draining flag flips under the same lock
// register reads it under, so every accepted campaign is guaranteed to
// be inside the wait group before Drain starts waiting.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.cancel()
		<-done
		return ctx.Err()
	}
}

// Close cancels every running campaign immediately and stops the slots.
func (s *Server) Close() {
	s.cancel()
	s.slotsWG.Wait()
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, wire.ErrorBody{Error: fmt.Sprintf(format, args...)})
}

// Submitted is the POST /v1/campaigns response.
type Submitted struct {
	ID   string `json:"id"`
	Jobs int    `json:"jobs"`
	// Convenience URLs, relative to the server root.
	StatusURL string `json:"status_url"`
	EventsURL string `json:"events_url"`
	ExportURL string `json:"export_url"`
}

// errTooLarge refuses a campaign over maxCampaignJobs or maxBudget.
var errTooLarge = errors.New("campaign too large")

// admit returns spec's job count when the campaign is admissible: a
// valid spec of at most maxCampaignJobs jobs, each of at most maxBudget
// instructions. The count comes from the axis lengths, so a spec over
// either bound is refused before anything grows with it.
func admit(spec *campaign.Spec) (int, error) {
	n, err := spec.JobCount()
	if err != nil {
		return 0, err
	}
	if n > maxCampaignJobs {
		return 0, fmt.Errorf("%w: the spec expands to %d jobs, over the bound of %d", errTooLarge, n, maxCampaignJobs)
	}
	if spec.Budget > maxBudget {
		return 0, fmt.Errorf("%w: a budget of %d instructions is over the bound of %d", errTooLarge, spec.Budget, maxBudget)
	}
	return n, nil
}

// errDraining refuses a submission once Drain has begun.
var errDraining = errors.New("server is draining")

// register is the one way into the registry, for submission and for
// recovery. An rc without an ID is a submission and takes the next ID;
// quota, when positive, bounds its owner's running campaigns. A running
// campaign holds a wait-group slot, the active gauge and a quota slot of
// its owner until end; an ended one (restored from its terminal record)
// adds its charge to the finished campaigns'.
func (s *Server) register(rc *campaignRun, quota int) error {
	ts := s.tenant(rc.client)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tmu.Lock()
	defer s.tmu.Unlock()
	if s.draining {
		return errDraining
	}
	if quota > 0 && ts.active >= quota {
		return fmt.Errorf("client %q already has %d active campaigns (quota %d)", rc.client, quota, quota)
	}
	switch {
	case rc.id == "":
		s.seq++
		rc.id = fmt.Sprintf("c%04d", s.seq)
		ts.submitted++
		s.met.campaignsSubmitted.Add(1)
	case !rc.ended:
		s.met.campaignsRecovered.Add(1)
	}
	s.campaigns[rc.id] = rc
	rc.elem = s.order.PushBack(rc)
	if rc.ended {
		s.finishedJobs += charge(len(rc.roster))
		return nil
	}
	ts.active++
	s.met.campaignsActive.Add(1)
	s.wg.Add(1)
	return nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec campaign.Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20))
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "bad spec: %v", err)
		return
	}
	_, err := admit(&spec)
	if errors.Is(err, errTooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, "%v", err)
		return
	}
	var jobs []campaign.Job
	if err == nil {
		jobs, err = spec.Jobs()
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad spec: %v", err)
		return
	}
	if len(jobs) == 0 {
		writeError(w, http.StatusBadRequest, "spec expands to no jobs")
		return
	}

	client, cerr := s.clientOf(r)
	if cerr != nil {
		writeError(w, http.StatusBadRequest, "%v", cerr)
		return
	}
	rc := &campaignRun{
		progress:  newProgress("", jobs),
		client:    client,
		name:      spec.Name,
		submitted: time.Now().UTC(),
		ns:        s.tenant(client).ns,
	}
	if err := s.register(rc, s.cfg.QuotaPerClient); err != nil {
		s.met.campaignsRejected.Add(1)
		code, retry := http.StatusTooManyRequests, "5"
		if errors.Is(err, errDraining) {
			code, retry = http.StatusServiceUnavailable, "10"
		}
		w.Header().Set("Retry-After", retry)
		writeError(w, code, "%v", err)
		return
	}

	// Persist the submission before acknowledging it. A record that
	// fails to write degrades this campaign to in-memory only — same
	// trade as the checkpoint store: durability is a feature, not a gate.
	if werr := s.store.Create(store.Meta{
		ID: rc.id, Client: client, Submitted: rc.submitted, Jobs: len(jobs), Spec: spec,
	}); werr != nil {
		log.Printf("sdiqd: %s: durable state disabled for this campaign: %v", rc.id, werr)
	}
	rc.begin()
	go s.run(rc, spec)

	writeJSON(w, http.StatusAccepted, Submitted{
		ID:        rc.id,
		Jobs:      len(jobs),
		StatusURL: "/v1/campaigns/" + rc.id,
		EventsURL: "/v1/campaigns/" + rc.id + "/events",
		ExportURL: "/v1/campaigns/" + rc.id + "/export",
	})
}

// run executes one campaign's spec through the job queue, feeding its
// progress and the metrics, then ends it.
func (s *Server) run(rc *campaignRun, spec campaign.Spec) {
	// Everything tenant-scoped comes from the owner's namespace: the
	// cache dir and dedup group, and the runner that pins jobs (on a
	// slot or leased) to the namespace's checkpoint store, so a worker's
	// uploaded artifact lands in the right namespace.
	ns := rc.ns
	eng := &campaign.Engine{
		// Per-campaign parallelism: the slots, plus live remote capacity
		// on top, so a fleet actually raises throughput.
		Workers:    s.cfg.Workers + s.disp.extraCapacity(),
		CacheDir:   ns.cacheDir,
		Flight:     &ns.flight,
		Runner:     ns, // the job queue, per cache-missed job
		OnJobStart: rc.started,
		OnResult: func(r campaign.Result) {
			switch {
			case r.Dedup:
				s.met.dedupHits.Add(1)
			case r.Cached:
				s.met.cacheHits.Add(1)
			default:
				s.met.jobsExecuted.Add(1)
				s.met.instsCommitted.Add(r.Stats.CommittedReal)
				s.met.simNanos.Add(r.FinishedAt.Sub(r.StartedAt).Nanoseconds())
			}
			rc.delivered(r)
		},
		OnJobError: func(j campaign.Job, err error) {
			s.met.jobsFailed.Add(1)
			rc.failed(j, err)
		},
	}
	rs, err := eng.Run(s.ctx, spec)
	s.end(rc, rs, err)
}

// end closes a running campaign, before it reads as done so that a
// client that sees it done finds all of this in place. It leaves the
// running campaigns, freeing its owner's quota slot; its terminal record
// is written; and it joins the finished campaigns, of which those
// charged over maxFinishedJobs then leave, oldest first — never a
// running one, nor rc, whose outcome its client is about to read. A
// failure caused by server shutdown (drain deadline, test kill — the
// crash-injection suite relies on this) neither writes a record nor
// joins: the next boot resumes the campaign instead of tombstoning a
// failure it never earned, and the bound cannot evict it meanwhile.
func (s *Server) end(rc *campaignRun, rs *campaign.ResultSet, err error) {
	defer s.wg.Done()
	finished := time.Now().UTC()
	rc.finish(finished, rs, err, func(st campaign.Status) {
		ts := s.tenant(rc.client)
		s.tmu.Lock()
		ts.active--
		if err != nil {
			ts.failed++
			s.met.campaignsFailed.Add(1)
		} else {
			ts.done++
			s.met.campaignsDone.Add(1)
		}
		s.tmu.Unlock()
		s.met.campaignsActive.Add(-1)
		if err != nil && s.ctx.Err() != nil {
			return
		}
		snap := store.Snapshot{Done: true, Finished: finished, Status: st}
		if err != nil {
			snap.Error = err.Error()
		}
		if rs != nil {
			snap.Results = rs.Results
		}
		if werr := s.store.Finish(rc.id, snap); werr != nil {
			log.Printf("sdiqd: %s: terminal record: %v", rc.id, werr)
		}
		s.evict(&s.met.campaignsEvicted, func() (victims []*campaignRun) {
			rc.ended = true
			s.finishedJobs += charge(len(rc.roster))
			over := s.finishedJobs - maxFinishedJobs
			for e := s.order.Front(); e != nil && over > 0; e = e.Next() {
				if old := e.Value.(*campaignRun); old.ended && old != rc {
					victims = append(victims, old)
					over -= charge(len(old.roster))
				}
			}
			return victims
		})
	})
}

// CampaignInfo is the status view of one campaign.
type CampaignInfo struct {
	ID        string          `json:"id"`
	Client    string          `json:"client,omitempty"`
	Name      string          `json:"name,omitempty"`
	Jobs      int             `json:"jobs"`
	Submitted time.Time       `json:"submitted"`
	Done      bool            `json:"done"`
	Finished  time.Time       `json:"finished,omitzero"`
	Error     string          `json:"error,omitempty"`
	Status    campaign.Status `json:"status"`
}

func (s *Server) info(rc *campaignRun, withJobs bool) CampaignInfo {
	done, finished, _, err := rc.state()
	info := CampaignInfo{
		ID:        rc.id,
		Client:    rc.client,
		Name:      rc.name,
		Submitted: rc.submitted,
		Done:      done,
		Finished:  finished,
	}
	if withJobs {
		info.Status = rc.snapshot()
	} else {
		info.Status = rc.summary()
	}
	info.Jobs = info.Status.Total
	if err != nil {
		info.Error = err.Error()
	}
	return info
}

// lookup resolves {id} to a campaign the request's principal may see.
// A campaign owned by another tenant reads as absent — status, events,
// export and delete all answer 404, never 403, so tenants cannot probe
// each other's ID space.
func (s *Server) lookup(r *http.Request) (*campaignRun, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rc, ok := s.campaigns[r.PathValue("id")]
	if !ok || !s.ownsCampaign(r, rc) {
		return nil, false
	}
	return rc, true
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	runs := make([]*campaignRun, 0, s.order.Len())
	for e := s.order.Front(); e != nil; e = e.Next() {
		if rc := e.Value.(*campaignRun); s.ownsCampaign(r, rc) {
			runs = append(runs, rc)
		}
	}
	s.mu.Unlock()
	out := make([]CampaignInfo, 0, len(runs))
	for _, rc := range runs {
		out = append(out, s.info(rc, false))
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	rc, ok := s.lookup(r)
	if !ok {
		writeError(w, http.StatusNotFound, "no campaign %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, s.info(rc, true))
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	rc, ok := s.lookup(r)
	if !ok {
		writeError(w, http.StatusNotFound, "no campaign %q", r.PathValue("id"))
		return
	}
	streamEvents(w, r, rc.progress)
}

func (s *Server) handleExport(w http.ResponseWriter, r *http.Request) {
	rc, ok := s.lookup(r)
	if !ok {
		writeError(w, http.StatusNotFound, "no campaign %q", r.PathValue("id"))
		return
	}
	done, _, rs, cerr := rc.state()
	if !done {
		writeError(w, http.StatusConflict, "campaign %s is still running", rc.id)
		return
	}
	if rs == nil {
		msg := "campaign produced no results"
		if cerr != nil {
			msg = cerr.Error()
		}
		writeError(w, http.StatusUnprocessableEntity, "campaign %s: %s", rc.id, msg)
		return
	}
	var err error
	switch format := r.URL.Query().Get("format"); format {
	case "csv":
		w.Header().Set("Content-Type", "text/csv")
		err = rs.WriteCSV(w)
	case "", "json":
		w.Header().Set("Content-Type", "application/json")
		err = rs.WriteJSON(w)
	default:
		writeError(w, http.StatusBadRequest, "unknown format %q (csv, json)", format)
		return
	}
	if err != nil {
		// Headers are gone and part of the body may be written; abort
		// the connection so the client sees a transport error instead
		// of a clean EOF on a truncated export.
		panic(http.ErrAbortHandler)
	}
}

// handleMetrics renders the counters plus the dispatcher's live worker
// and lease gauges, the checkpoint store's counters, and — when
// identity is in play — per-tenant labeled rows.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	rows := append(s.met.rows(), s.disp.rows()...)
	writeRows(w, append(rows, s.ckptRows()...))
	writeLabelRows(w, s.tenantRows())
}

// tenantRows renders sdiqd_tenant_* per-client rows. They exist only
// when auth or isolation is on — an open single-user service keeps its
// scrape output exactly as before.
func (s *Server) tenantRows() []labelRow {
	if s.cfg.Auth == nil && !s.cfg.TenantIsolation {
		return nil
	}
	s.tmu.Lock()
	defer s.tmu.Unlock()
	names := make([]string, 0, len(s.tenants))
	for c := range s.tenants {
		names = append(names, c)
	}
	sort.Strings(names)
	var rows []labelRow
	for _, c := range names {
		ts := s.tenants[c]
		lbl := fmt.Sprintf(`{tenant=%q}`, c)
		rows = append(rows,
			labelRow{"sdiqd_tenant_campaigns_submitted_total", "Campaigns submitted, by tenant.", "counter", lbl, float64(ts.submitted)},
			labelRow{"sdiqd_tenant_campaigns_done_total", "Campaigns finished successfully, by tenant.", "counter", lbl, float64(ts.done)},
			labelRow{"sdiqd_tenant_campaigns_failed_total", "Campaigns finished with an error, by tenant.", "counter", lbl, float64(ts.failed)},
			labelRow{"sdiqd_tenant_campaigns_active", "Campaigns currently running, by tenant.", "gauge", lbl, float64(ts.active)},
		)
		if ts.ns != s.shared && ts.ns.ckpt != nil {
			artifacts, bytes := ts.ns.ckpt.DiskStat()
			rows = append(rows,
				labelRow{"sdiqd_tenant_ckpt_artifacts", "Checkpoint artifacts on disk, by tenant.", "gauge", lbl, float64(artifacts)},
				labelRow{"sdiqd_tenant_ckpt_store_bytes", "Checkpoint artifact bytes on disk, by tenant.", "gauge", lbl, float64(bytes)},
			)
		}
	}
	return rows
}

// ckptRows renders the checkpoint stores' live metrics, summed over
// every namespace (no CkptDir → no rows, so scraping a store-less
// server is unchanged).
func (s *Server) ckptRows() []row {
	if s.cfg.CkptDir == "" {
		return nil
	}
	var m ckpt.Metrics
	var artifacts, bytes int64
	for _, ns := range s.namespaces() {
		nm := ns.ckpt.Metrics()
		m.Hits += nm.Hits
		m.Misses += nm.Misses
		m.Generated += nm.Generated
		m.Evicted += nm.Evicted
		a, b := ns.ckpt.DiskStat()
		artifacts += a
		bytes += b
	}
	return []row{
		{"sdiqd_ckpt_hits_total", "Checkpoint artifacts resumed from the store.", "counter", float64(m.Hits)},
		{"sdiqd_ckpt_misses_total", "Checkpoint artifact lookups that missed.", "counter", float64(m.Misses)},
		{"sdiqd_ckpt_generated_total", "Checkpoint artifacts generated and published locally.", "counter", float64(m.Generated)},
		{"sdiqd_ckpt_evicted_total", "Checkpoint artifacts evicted (GC, corruption or an older format).", "counter", float64(m.Evicted)},
		{"sdiqd_ckpt_bytes_shipped_total", "Checkpoint artifact bytes shipped to or from workers over HTTP.", "counter", float64(s.met.ckptBytesShipped.Load())},
		{"sdiqd_ckpt_artifacts", "Checkpoint artifacts currently on disk.", "gauge", float64(artifacts)},
		{"sdiqd_ckpt_store_bytes", "Total bytes of checkpoint artifacts on disk.", "gauge", float64(bytes)},
	}
}

// handleDelete evicts a finished campaign: its progress, event log and
// result set become garbage, and its durable records go (see evict for
// what stays). Running campaigns are refused: cancel-by-delete would
// silently change other observers' results, and the engine owns
// cancellation. Exports wanted later must be fetched (or re-submitted —
// the disk cache makes that cheap) before deletion.
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	code, refusal := http.StatusNoContent, ""
	s.evict(&s.met.campaignsDeleted, func() []*campaignRun {
		rc, ok := s.campaigns[id]
		switch {
		case !ok || !s.ownsCampaign(r, rc):
			// Another tenant's campaign answers 404, not 403: the ID
			// space must not leak across tenants.
			code, refusal = http.StatusNotFound, "no campaign %q"
		case !rc.ended:
			code, refusal = http.StatusConflict, "campaign %s is still running"
		default:
			return []*campaignRun{rc}
		}
		return nil
	})
	if refusal != "" {
		writeError(w, code, refusal, id)
		return
	}
	w.WriteHeader(code)
}

// evict is the one way out of the registry, for DELETE and the bound.
// pick runs under s.mu and names finished campaigns, each claimed there,
// so a DELETE racing an eviction of the same campaign finds it gone.
// Then its durable records go, and it counts once in ctr. What it shared
// with other campaigns, its cached results and checkpoint artifacts,
// stays on disk, under the byte bound alone.
func (s *Server) evict(ctr *atomic.Int64, pick func() []*campaignRun) {
	s.mu.Lock()
	victims := pick()
	for _, rc := range victims {
		delete(s.campaigns, rc.id)
		s.order.Remove(rc.elem)
		s.finishedJobs -= charge(len(rc.roster))
	}
	s.mu.Unlock()
	for _, rc := range victims {
		if err := s.store.Remove(rc.id); err != nil {
			log.Printf("sdiqd: %s: durable records: %v", rc.id, err)
		}
		ctr.Add(1)
	}
}

// errCampaignFailed wraps a failed campaign's server-side error for
// clients.
var errCampaignFailed = errors.New("campaign failed")
