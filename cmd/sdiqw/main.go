// Command sdiqw is the remote simulation worker: it pulls jobs from a
// sdiqd campaign server over HTTP leases — its first lease poll joins
// the fleet — runs them with the same executor the server and CLI use
// (so results are byte-identical wherever a job lands), heartbeats
// while they run, and uploads the results. Point any number of sdiqw
// processes — on any machines — at one sdiqd to scale a campaign fleet
// horizontally.
//
// Usage:
//
//	sdiqw -server http://host:8080 [-name NAME] [-scratch DIR]
//	      [-scratch-max-bytes N] [-ckpt DIR] [-parallel N] [-token TOKEN]
//
// -scratch is the worker's local result cache: a job this worker has
// run before is answered from disk. -ckpt is the worker's local
// checkpoint artifact store: sampled jobs download the sweep's shared
// warm state from the server (or generate and push it back) instead of
// re-warming per cell. -scratch-max-bytes bounds each store, a
// tenant's too (below), evicting least recently used entries after
// every job (an artifact only once it has been pushed). -parallel is how many jobs run
// concurrently (default: GOMAXPROCS). -token is the worker-role bearer credential,
// required against a server running with -auth (also read from
// SDIQ_TOKEN so the secret stays out of process listings).
//
// The worker survives coordinator restarts: failed lease polls retry
// with jittered exponential backoff, and the restarted server admits
// the worker again at its next poll — scratch-cached results make any
// re-leased jobs cheap. A poll the server refuses with a 4xx (protocol
// drift, a refused token) ends the worker with that error.
//
// Against a server run with -tenant-isolation, a lease names its
// tenant, and the worker keeps that tenant's stores under
// tenants/<tenant> of -scratch and -ckpt, so no tenant's lease is
// answered from another's results or warm state.
//
// On SIGTERM/SIGINT the worker drains: it stops taking leases, finishes
// and uploads in-flight jobs, then deregisters. A second signal aborts
// immediately — in-flight jobs are abandoned and the server's lease TTL
// re-queues them on the rest of the fleet.
//
//	sdiqd -addr :8080 -cache /var/cache/sdiq &
//	sdiqw -server http://localhost:8080 -scratch /tmp/sdiqw &
//	sdiq -remote http://localhost:8080 -experiment fig8
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"runtime"
	"syscall"

	"repro/internal/worker"
)

func main() {
	server := flag.String("server", "http://localhost:8080", "sdiqd base URL")
	name := flag.String("name", "", "label in the worker's own log lines (default: hostname)")
	scratch := flag.String("scratch", "", "local result cache directory (recommended)")
	scratchMax := flag.Int64("scratch-max-bytes", 0, "size bound of each scratch cache and checkpoint store, LRU-evicted (0 = unbounded)")
	ckptDir := flag.String("ckpt", "", "local checkpoint artifact store directory")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "concurrent jobs")
	token := flag.String("token", os.Getenv("SDIQ_TOKEN"), "worker bearer token (default $SDIQ_TOKEN; required when the server runs -auth)")
	flag.Parse()

	log.SetPrefix("sdiqw: ")
	log.SetFlags(log.LstdFlags | log.Lmsgprefix)

	w := &worker.Worker{
		Server:          *server,
		Name:            *name,
		Scratch:         *scratch,
		ScratchMaxBytes: *scratchMax,
		Ckpt:            *ckptDir,
		Concurrency:     *parallel,
		Token:           *token,
		Logf:            log.Printf,
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		log.Printf("draining: finishing in-flight jobs (signal again to abort)")
		w.Shutdown()
		<-sigs
		log.Printf("aborting")
		cancel()
	}()

	if err := w.Run(ctx); err != nil && err != context.Canceled {
		log.Fatalf("worker: %v", err)
	}
	log.Printf("drained, bye")
}
