// Command matscale-server serves sweep requests over HTTP: clients
// POST SweepSpecs, follow per-cell progress over SSE, and GET results
// that overlapping sweeps share byte-identically through the cell
// cache. It is the service front of internal/server; see
// docs/SERVER.md for the API and protocol.
//
// Usage:
//
//	matscale-server [-addr 127.0.0.1:8080] [-queue 256] [-concurrency 4]
//	                [-jobs 0] [-rate 0] [-burst 0] [-timeout 0]
//	                [-cache 65536]
//	                [-checkpoint-dir DIR] [-suspend-on-timeout=true]
//
// SIGINT/SIGTERM shut the server down gracefully: the listener closes,
// admission stops (new submits get 503 shutting_down), and every
// already-admitted job drains before the process exits.
//
// With -checkpoint-dir, suspended jobs persist their checkpoints there
// and are restored — same IDs, same completed cells — when the server
// restarts on the directory. A job that hits -timeout is suspended with
// its completed cells intact rather than failed, unless
// -suspend-on-timeout=false restores the old discard behavior.
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

	"matscale/internal/server"
)

// realClock is the production server.Clock: plain wall time. It lives
// here, outside the determinism-contract packages, so internal/server
// itself stays wall-clock-free.
type realClock struct{}

func (realClock) Now() time.Time                         { return time.Now() }
func (realClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

func main() {
	fs := flag.NewFlagSet("matscale-server", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	queue := fs.Int("queue", 256, "job queue depth (submits beyond it get 429 queue_full)")
	concurrency := fs.Int("concurrency", 4, "jobs executing simultaneously")
	jobs := fs.Int("jobs", 0, "sweep workers per running job (0 = all CPUs)")
	rate := fs.Float64("rate", 0, "admission rate limit in submits/sec (0 = unlimited)")
	burst := fs.Int("burst", 0, "rate-limit burst (0 = derived from -rate)")
	timeout := fs.Duration("timeout", 0, "per-job wall-clock timeout (0 = none)")
	cache := fs.Int("cache", server.DefaultCacheCells, "cell cache capacity in cells (-1 disables)")
	ckptDir := fs.String("checkpoint-dir", "", "persist suspended-job checkpoints here and restore them on startup (empty = in-memory only)")
	suspendOnTimeout := fs.Bool("suspend-on-timeout", true, "suspend jobs that exceed -timeout with a resumable checkpoint instead of failing them")
	fs.Parse(os.Args[1:])

	srv, err := server.New(server.Config{
		QueueDepth:    *queue,
		MaxConcurrent: *concurrency,
		SweepWorkers:  *jobs,
		RatePerSec:    *rate,
		Burst:         *burst,
		JobTimeout:    *timeout,
		CacheCells:    *cache,
		Clock:         realClock{},

		SuspendOnTimeout: *suspendOnTimeout,
		CheckpointDir:    *ckptDir,
	})
	if err != nil {
		log.Fatalf("matscale-server: %v", err)
	}

	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := <-sigs
		log.Printf("matscale-server: %v: draining", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			log.Printf("matscale-server: http shutdown: %v", err)
		}
		srv.Shutdown() // waits for every admitted job
	}()

	log.Printf("matscale-server: listening on %s (queue %d, concurrency %d)",
		*addr, *queue, *concurrency)
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("matscale-server: %v", err)
	}
	<-done
	st := srv.Stats()
	msg := fmt.Sprintf("matscale-server: drained: %d completed, %d failed, %d suspended, %d cancelled, %d cells served",
		st.Completed, st.Failed, st.Suspended, st.Canceled, st.CellsServed)
	if st.Cache != nil {
		msg += fmt.Sprintf(", cache hit rate %.3f", st.Cache.HitRate)
	}
	log.Print(msg)
}
