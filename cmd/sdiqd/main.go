// Command sdiqd is the long-running campaign service: it accepts
// campaign specifications over HTTP from any number of sdiq clients,
// puts their jobs on one job queue over one on-disk result cache,
// deduplicates identical in-flight jobs fleet-wide, and streams
// progress and exports back. See internal/serve for the API.
//
// Usage:
//
//	sdiqd [-addr :8080] [-cache DIR] [-ckpt DIR] [-state DIR] [-parallel N]
//	      [-quota N] [-drain 30s] [-lease-ttl 15s] [-job-retries 2]
//	      [-cache-max-bytes 0] [-auth tokens.json] [-tenant-isolation]
//
// -parallel is how many of the server's own slots run jobs in-process,
// across all campaigns (0 = GOMAXPROCS); -quota caps active campaigns
// per client (0 = unlimited). On SIGTERM/SIGINT the server drains: new
// submissions are refused with 503, running campaigns get up to -drain
// to finish, then are cancelled at job granularity; the HTTP shutdown
// that follows ends the workers' parked lease polls at once.
//
// Remote workers (sdiqw) may join at any time: a worker's first lease
// poll admits it, and a restarted server's too. Every cache-missed
// job goes on one queue: a live fleet takes its jobs over leases, and
// the slots run only those that failed more than -job-retries leases;
// with no live worker the slots run every job, so a fleet that goes
// silent hands its queue over after about -lease-ttl. -lease-ttl is
// also how long a worker may go silent before its job is re-queued.
//
// -ckpt enables the checkpoint artifact store: sampled sweep cells that
// share a warming identity reuse one functional-warming pass instead of
// each recomputing it, locally and across the fleet (workers download
// artifacts from /v1/checkpoints and push ones they generate). Each
// artifact request names a live lease whose job carries the key, and
// reads or writes the namespace of the campaign that lease serves.
// Artifacts, like cached results, outlive the campaigns that made them:
// only -cache-max-bytes removes them.
//
// -state makes the control plane durable: each campaign's submission
// record is written at submit, and its terminal record (error, final
// status and results) once, when it ends — both fsync'd and published
// by rename. After a crash or restart, sdiqd restores every ended
// campaign from its terminal record, running nothing, and re-runs the
// others — already-finished jobs come back as result-cache hits, never
// duplicate simulations (pair -state with -cache) — then resumes
// serving status, events and exports to reconnecting clients and
// workers.
//
// Once the finished campaigns are charged more than 50,000 jobs in all,
// each its own jobs plus two for the campaign itself, the oldest leave,
// with their durable state. -cache-max-bytes bounds each
// on-disk store — the result cache and the checkpoint store,
// separately — evicting least recently used entries every minute.
//
// -auth turns authentication on: every /v1/* request must present a
// bearer token from the given token file (JSON mapping tokens to
// principals with role "tenant" or "worker" — see internal/auth), and
// client identity comes from the token's principal, never a header.
// SIGHUP re-reads the file, so tokens rotate without a restart (a
// broken file keeps the previous set in force). -tenant-isolation
// additionally gives each client its own namespace — result cache and
// checkpoint store under tenants/<client> of -cache and -ckpt, plus its
// own in-flight dedup — so tenants share no result or artifact on the
// server, and -cache-max-bytes bounds each tenant's stores separately.
// A lease names its campaign's tenant, and workers keep their own
// stores per tenant too (see sdiqw).
//
//	sdiqd -addr :8080 -cache /var/cache/sdiq &
//	sdiqw -server http://localhost:8080 -scratch /tmp/sdiqw &
//	sdiq -remote http://localhost:8080 -experiment fig8
//	curl -s localhost:8080/metrics | grep sdiqd_
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/auth"
	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	cacheDir := flag.String("cache", "", "shared on-disk result cache directory (strongly recommended)")
	ckptDir := flag.String("ckpt", "", "checkpoint artifact store directory (amortizes sampled-sweep warming)")
	stateDir := flag.String("state", "", "durable control-plane state directory (campaigns survive restarts)")
	parallel := flag.Int("parallel", 0, "in-process job slots: they run every job while no worker is live, and only jobs past -job-retries while one is (0 = GOMAXPROCS)")
	quota := flag.Int("quota", 0, "max active campaigns per client (0 = unlimited)")
	drain := flag.Duration("drain", 30*time.Second, "grace period for running campaigns on shutdown")
	leaseTTL := flag.Duration("lease-ttl", 15*time.Second, "worker lease lifetime between heartbeats")
	jobRetries := flag.Int("job-retries", 2, "re-lease attempts after a failed lease; after them only the in-process slots run the job (negative = none)")
	cacheMaxBytes := flag.Int64("cache-max-bytes", 0, "size bound of each result cache and checkpoint store, LRU-evicted every minute (0 = unbounded)")
	authFile := flag.String("auth", "", "bearer token file (JSON); enables authentication on every /v1/* endpoint")
	tenantIsolation := flag.Bool("tenant-isolation", false, "give each client its own result cache, checkpoint store and dedup")
	flag.Parse()

	log.SetPrefix("sdiqd: ")
	log.SetFlags(log.LstdFlags | log.Lmsgprefix)

	var authenticator *auth.Authenticator
	if *authFile != "" {
		var err error
		if authenticator, err = auth.LoadFile(*authFile); err != nil {
			// Unlike the optional stores, a broken token file must not
			// degrade to an open server.
			log.Fatalf("auth: %v", err)
		}
		log.Printf("authentication on: %d token(s) from %s (SIGHUP reloads)", authenticator.Len(), *authFile)
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			for range hup {
				if err := authenticator.Reload(); err != nil {
					log.Printf("auth reload failed, previous tokens still in force: %v", err)
				} else {
					log.Printf("auth reloaded: %d token(s)", authenticator.Len())
				}
			}
		}()
	}

	s := serve.New(serve.Config{
		CacheDir:        *cacheDir,
		CkptDir:         *ckptDir,
		StateDir:        *stateDir,
		Workers:         *parallel,
		QuotaPerClient:  *quota,
		LeaseTTL:        *leaseTTL,
		JobRetries:      *jobRetries,
		CacheMaxBytes:   *cacheMaxBytes,
		Auth:            authenticator,
		TenantIsolation: *tenantIsolation,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: s.Handler()}
	// Shutdown runs this once the listener has closed: it ends the
	// workers' parked lease polls, which would otherwise hold Shutdown
	// for up to half the worker TTL. Draining keeps them: the fleet
	// still runs the draining campaigns' jobs.
	httpSrv.RegisterOnShutdown(s.Close)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		log.Printf("listening on %s (cache=%q, parallel=%d, quota=%d)",
			*addr, *cacheDir, *parallel, *quota)
		errCh <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		log.Fatalf("serve: %v", err)
	case <-ctx.Done():
	}
	stop() // a second signal kills us the default way

	log.Printf("draining: refusing new campaigns, waiting up to %s for running ones", *drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := s.Drain(drainCtx); err != nil {
		log.Printf("drain timed out, campaigns cancelled: %v", err)
	}
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("http shutdown: %v", err)
	}
	fmt.Fprintln(os.Stderr, "sdiqd: drained, bye")
}
