// Command fpintd is the compile-and-simulate daemon: an HTTP/JSON service
// accepting compile, partition, and simulate jobs over a bounded worker
// pool with a content-addressed artifact cache. Responses are compact JSON
// documents, one per line.
//
// Usage:
//
//	fpintd [-addr :8080] [-workers 4] [-queue 16] [-cache 1024] [-chaos] [-grace 30s]
//
// Endpoints:
//
//	POST /v1/compile    {"source"|"workload", "scheme", "analysis", ...}
//	POST /v1/partition  same body; responds with the audit-trail view
//	POST /v1/simulate   adds "config" (4way|8way) and "timing"
//	                    (detailed|fast|functional)
//	GET  /healthz       liveness
//	GET  /statsz        operational counters (deterministic registry JSON)
//
// Robustness: worker panics are recovered into 500s; per-job deadlines
// ("deadlineMs") and step budgets ("stepBudget") abort runs cooperatively
// with 422; every worker takes jobs from one queue of -workers × -queue
// slots, and a full queue sheds with 503 + Retry-After. SIGTERM/SIGINT
// starts a graceful drain: in-flight jobs finish, queued jobs are shed,
// then the listener closes. A drain still running after -grace
// force-cancels in-flight jobs via their run hooks.
//
// -chaos enables the fault-injection surface ("panic": true jobs) used by
// the load harness to prove the recover barrier; never enable it facing
// untrusted clients.
//
// Exit codes: 0 after a graceful drain, 1 usage error (a bad flag, or a
// -workers, -queue or -cache below one), 6 when the listener fails.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fpint/internal/fperr"
	"fpint/internal/service"
)

func main() {
	err := fpintdMain(os.Args[1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "fpintd: %v\n", err)
	}
	os.Exit(fperr.ExitCode(err))
}

func fpintdMain(args []string) error {
	fs := flag.NewFlagSet("fpintd", flag.ContinueOnError)
	var (
		addr    = fs.String("addr", "127.0.0.1:8080", "listen address")
		workers = fs.Int("workers", 4, "worker goroutines")
		queue   = fs.Int("queue", 16, "queued jobs per worker before shedding")
		cache   = fs.Int("cache", 1024, "artifact cache capacity (entries)")
		chaos   = fs.Bool("chaos", false, "honor panic-injection jobs (load-testing only)")
		grace   = fs.Duration("grace", 30*time.Second, "drain grace before force-cancelling in-flight jobs")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return fperr.Wrap(fperr.ClassUsage, err)
	}
	if fs.NArg() != 0 {
		return fperr.New(fperr.ClassUsage, "unexpected arguments %v", fs.Args())
	}
	if *workers < 1 || *queue < 1 || *cache < 1 {
		return fperr.New(fperr.ClassUsage, "-workers %d, -queue %d, -cache %d: each must be positive", *workers, *queue, *cache)
	}

	svc := service.New(service.Options{
		Workers:    *workers,
		QueueDepth: *queue,
		CacheCap:   *cache,
		Chaos:      *chaos,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: svc.Handler()}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	drained := make(chan struct{})
	go func() {
		sig := <-sigs
		fmt.Fprintf(os.Stderr, "fpintd: %v: draining (in-flight jobs finish, queued jobs shed)\n", sig)
		forceTimer := time.AfterFunc(*grace, func() {
			fmt.Fprintf(os.Stderr, "fpintd: drain exceeded %v: force-cancelling in-flight jobs\n", *grace)
			svc.Abort()
		})
		svc.Drain()
		forceTimer.Stop()
		// The pool is empty; give straggling response writes a moment, then
		// close the listener.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		httpSrv.Shutdown(ctx)
		close(drained)
	}()

	fmt.Fprintf(os.Stderr, "fpintd: listening on %s (workers=%d queue=%d cache=%d chaos=%v)\n",
		*addr, *workers, *queue, *cache, *chaos)
	err := httpSrv.ListenAndServe()
	if errors.Is(err, http.ErrServerClosed) {
		<-drained
		fmt.Fprintln(os.Stderr, "fpintd: drained, exiting")
		return nil
	}
	return fperr.Wrap(fperr.ClassUnavailable, err)
}
