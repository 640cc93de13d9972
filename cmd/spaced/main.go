// Command spaced is the space-measurement daemon: the repo's engine —
// the six Clinger machines plus the two contract monitors, the
// Definition 21 S_X/U_X meters, and the static space-leak analyzer —
// behind a long-lived HTTP/JSON service.
//
//	spaced [-addr host:port] [-workers N] [-cache N] [-timeout D] [-drain D]
//	       [-max-steps N] [-access-log stderr|off|PATH] [-debug-addr host:port]
//
// Endpoints:
//
//	POST /v1/eval              run a program on a chosen machine
//	POST /v1/measure           S/U peaks across a machine × accounting grid
//	POST /v1/lint              static space-leak verdicts
//	GET  /v1/runs/{id}/events  live NDJSON/SSE stream of a traced run
//	GET  /v1/traces/{id}       a request's spans (?format=chrome for
//	                           chrome://tracing)
//	GET  /healthz              liveness, build version, uptime
//	GET  /metrics              the serving registry: JSON by default,
//	                           Prometheus text for scrapers (Accept or
//	                           ?format=prometheus), including latency,
//	                           queue-wait, and space-peak histograms
//
// Requests run on a bounded worker pool under a per-request deadline;
// dropping the client connection cancels the run it started (unless a
// coalesced request still wants it). Identical requests are answered from a
// content-addressed cache keyed by the *expanded* program, so surface
// spellings that expand alike share entries; concurrent identical requests
// share one computation (single flight). SIGINT/SIGTERM drains in-flight
// requests under -drain, then aborts whatever remains.
//
// The access log is JSONL obs events, one per request, each carrying the
// trace ID and outcome (hit|miss|join on success; shed|cancel|timeout on
// failure): -access-log selects stderr (default), off, or an append-to
// file path. -debug-addr starts a second listener exposing net/http/pprof
// under /debug/pprof/, kept off the serving port so profiling is opt-in
// and never scraped publicly.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tailspace/internal/obs"
	"tailspace/internal/service"
	"tailspace/internal/version"
)

// openAccessLog resolves the -access-log flag: a JSONL event sink on
// stderr, nothing, or an append-mode file (plus its closer).
func openAccessLog(dest string) (obs.Sink, io.Closer, error) {
	switch dest {
	case "off", "none", "":
		return nil, nil, nil
	case "stderr", "-":
		return obs.NewJSONLSink(os.Stderr), nil, nil
	}
	f, err := os.OpenFile(dest, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("access log: %w", err)
	}
	return obs.NewJSONLSink(f), f, nil
}

// debugMux is the -debug-addr route table: the pprof handlers, registered
// explicitly so the serving mux never inherits them from the default mux.
func debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func main() {
	fs := flag.NewFlagSet("spaced", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8750", "listen address (host:port; port 0 picks a free port)")
	workers := fs.Int("workers", 0, "worker pool size (<1 means GOMAXPROCS)")
	cacheEntries := fs.Int("cache", 4096, "result cache capacity in entries")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request deadline")
	drain := fs.Duration("drain", 10*time.Second, "shutdown drain timeout for in-flight requests")
	maxSteps := fs.Int("max-steps", 5_000_000, "cap on the per-request step bound")
	accessLog := fs.String("access-log", "stderr", `request log destination: "stderr", "off", or a file path (appended)`)
	debugAddr := fs.String("debug-addr", "", "optional second listener (host:port) exposing /debug/pprof")
	showVersion := fs.Bool("version", false, "print version and exit")
	fs.Parse(os.Args[1:])
	if *showVersion {
		version.Print(os.Stdout, "spaced")
		return
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: spaced [flags]; run spaced -h for the list")
		os.Exit(2)
	}
	events, logClose, err := openAccessLog(*accessLog)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spaced:", err)
		os.Exit(1)
	}
	if logClose != nil {
		defer logClose.Close()
	}
	svc := service.New(service.Config{
		Workers:        *workers,
		CacheEntries:   *cacheEntries,
		RequestTimeout: *timeout,
		MaxSteps:       *maxSteps,
		Events:         events,
	})

	// Process-level gauges (goroutines, heap, GC pauses) land in the same
	// registry the request metrics use, so one /metrics scrape covers both.
	stopSampler := obs.StartRuntimeSampler(svc.Metrics(), 10*time.Second)
	defer stopSampler()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spaced:", err)
		os.Exit(1)
	}
	// The listening line goes to stdout so scripts (serve_smoke.sh) can
	// discover an ephemeral port.
	fmt.Printf("spaced: listening on http://%s\n", ln.Addr())

	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "spaced:", err)
			os.Exit(1)
		}
		fmt.Printf("spaced: debug listening on http://%s\n", dln.Addr())
		go http.Serve(dln, debugMux())
	}

	srv := &http.Server{Handler: svc.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "spaced:", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	// Graceful shutdown: stop accepting, give in-flight requests the drain
	// window, then cancel whatever is still running.
	fmt.Println("spaced: draining")
	shCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	err = srv.Shutdown(shCtx)
	svc.Close()
	if err != nil {
		// Stragglers were aborted by Close; reap their handlers.
		srv.Close()
		if !errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintln(os.Stderr, "spaced: shutdown:", err)
			os.Exit(1)
		}
		fmt.Println("spaced: drain timeout hit; aborted remaining runs")
	}
	fmt.Println("spaced: stopped")
}
