// Command slicerd is the resident slice/verify daemon: a JSON HTTP
// service that runs many slice and CEGAR-check sessions concurrently
// over shared long-lived state — the compiled-program LRU, per-program
// frame summaries and abstract-post memos, one shared solver-verdict
// cache, and the epoch-collected hash-cons interner (docs/API.md,
// docs/DEPLOYMENT.md).
//
// Usage:
//
//	slicerd [-addr a] [-admin-addr a] [-max-inflight n]
//	        [-default-deadline d] [-max-deadline d] [-max-programs n]
//	        [-cache-size n] [-intern-keep n]
//	        [-gc-every d] [-max-source-bytes n] [-max-body-bytes n]
//	        [-drain-timeout d] [-snapshot-path f] [-snapshot-every d]
//	        [-tls-cert f -tls-key f] [-auth-token t]
//	        [-fault-* ...] [-trace-out f]
//
// The API port serves POST /v1/slice, POST /v1/check, GET /v1/healthz
// and GET /v1/stats. The admin port serves the obs surface — /metrics
// (Prometheus), /debug/vars (expvar) and /debug/pprof — so operational
// endpoints are never exposed on the API address.
//
// Robustness (docs/ROBUSTNESS.md): at most -max-inflight sessions run
// at once; excess traffic is shed with a typed 503 "undecided" body,
// and every request runs under a deadline. Overload and expiry degrade
// — they never flip a verdict. -fault-* installs the deterministic
// fault injector (the serve-smoke harness uses it to force overload).
//
// Crash safety (docs/DEPLOYMENT.md): SIGTERM/SIGINT triggers a
// graceful drain — healthz flips to 503 "draining", new sessions get
// the typed 503, in-flight sessions finish (up to -drain-timeout, then
// they are force-degraded soundly) — and, with -snapshot-path set, the
// warm state is saved on the way out and restored on the next boot.
// -snapshot-every adds a periodic save so even a SIGKILL loses at most
// one interval of warm-up.
//
// Security: -tls-cert/-tls-key serve the API over TLS; -auth-token
// requires `Authorization: Bearer <token>` on every endpoint except
// /v1/healthz.
//
// Exit codes: 0 clean shutdown, 1 internal error, 2 usage.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pathslice/internal/faults"
	"pathslice/internal/obs"
	"pathslice/internal/service"
)

const (
	exitOK       = 0
	exitInternal = 1
	exitUsage    = 2
)

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", "127.0.0.1:8080", "API listen address (POST /v1/slice, /v1/check; GET /v1/healthz, /v1/stats)")
	adminAddr := flag.String("admin-addr", "127.0.0.1:9090", "admin listen address for /metrics, /debug/vars, /debug/pprof (\"\" disables)")
	maxInflight := flag.Int("max-inflight", 8, "maximum concurrently admitted sessions; excess requests get a typed 503")
	defaultDeadline := flag.Duration("default-deadline", 30*time.Second, "deadline for requests that set no deadline_ms")
	maxDeadline := flag.Duration("max-deadline", 2*time.Minute, "upper clamp on requested deadlines")
	maxPrograms := flag.Int("max-programs", 64, "program-state LRU capacity (compiled CFAs, summaries, checker memos)")
	cacheSize := flag.Int("cache-size", 0, "shared solver verdict cache capacity (0 = default)")
	internKeep := flag.Int("intern-keep", 4, "interner GC retention window in epochs")
	gcEvery := flag.Duration("gc-every", time.Minute, "interner GC epoch cadence (0 disables the loop)")
	maxSourceBytes := flag.Int64("max-source-bytes", 1<<20, "maximum uploaded program size in bytes")
	maxBodyBytes := flag.Int64("max-body-bytes", 16<<20, "maximum request body size in bytes (traces included)")
	traceOut := flag.String("trace-out", "", "write a JSONL trace event log to this file (\"-\" for stderr)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "how long a SIGTERM drain waits for in-flight sessions before force-degrading them")
	snapshotPath := flag.String("snapshot-path", "", "warm-state snapshot file: restored on boot, saved on drain (\"\" disables)")
	snapshotEvery := flag.Duration("snapshot-every", 0, "periodic snapshot-save cadence (0 = save only on drain)")
	tlsCert := flag.String("tls-cert", "", "serve the API over TLS with this certificate file (requires -tls-key)")
	tlsKey := flag.String("tls-key", "", "TLS private key file (requires -tls-cert)")
	authToken := flag.String("auth-token", "", "require `Authorization: Bearer <token>` on every endpoint except /v1/healthz")
	faultCfg := faults.FlagConfig(flag.CommandLine)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: slicerd [flags]")
		flag.Usage()
		return exitUsage
	}
	if (*tlsCert == "") != (*tlsKey == "") {
		fmt.Fprintln(os.Stderr, "slicerd: -tls-cert and -tls-key must be set together")
		return exitUsage
	}

	if cfg := faultCfg(); cfg != nil {
		faults.Install(faults.New(*cfg))
		fmt.Fprintln(os.Stderr, "slicerd: fault injection enabled")
	}

	cleanup, err := obs.Setup(*traceOut, "")
	if err != nil {
		fmt.Fprintln(os.Stderr, "slicerd:", err)
		return exitUsage
	}
	defer func() { _ = cleanup() }()

	// The admin port's /metrics serves the process-wide registry: turn
	// it on before the server exists, so a snapshot restore counts too.
	obs.Default().SetEnabled(true)
	srv := service.New(service.Config{
		MaxInflight:      *maxInflight,
		DefaultDeadline:  *defaultDeadline,
		MaxDeadline:      *maxDeadline,
		MaxSourceBytes:   *maxSourceBytes,
		MaxBodyBytes:     *maxBodyBytes,
		MaxPrograms:      *maxPrograms,
		SolverCacheSize:  *cacheSize,
		InternKeepEpochs: *internKeep,
		GCInterval:       *gcEvery,
		SnapshotPath:     *snapshotPath,
		SnapshotInterval: *snapshotEvery,
		AuthToken:        *authToken,
	})
	defer srv.Close()
	if *snapshotPath != "" {
		if st := srv.Stats().Snapshot; st != nil && st.RestoredPrograms+st.RestoredVerdicts > 0 {
			fmt.Fprintf(os.Stderr, "slicerd: snapshot restored %d programs, %d summaries, %d verdicts (%d records dropped)\n",
				st.RestoredPrograms, st.RestoredSummaries, st.RestoredVerdicts, st.DroppedRecords)
		}
	}

	if *adminAddr != "" {
		bound, stopAdmin, err := obs.Serve(*adminAddr, obs.Default())
		if err != nil {
			fmt.Fprintln(os.Stderr, "slicerd:", err)
			return exitInternal
		}
		defer func() { _ = stopAdmin() }()
		fmt.Printf("slicerd: admin http://%s\n", bound)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "slicerd:", err)
		return exitInternal
	}
	// The bound address goes to stdout so harnesses that listen on
	// ":0" (cmd/servesmoke, cmd/chaossmoke, the tests) can find the
	// port.
	scheme := "http"
	if *tlsCert != "" {
		scheme = "https"
	}
	fmt.Printf("slicerd: api %s://%s\n", scheme, ln.Addr())

	httpSrv := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() {
		if *tlsCert != "" {
			errc <- httpSrv.ServeTLS(ln, *tlsCert, *tlsKey)
			return
		}
		errc <- httpSrv.Serve(ln)
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case got := <-sig:
		fmt.Fprintf(os.Stderr, "slicerd: %s, draining\n", got)
		// Graceful drain (docs/DEPLOYMENT.md): stop admitting (typed
		// 503s, healthz flips to "draining"), let in-flight sessions
		// finish up to -drain-timeout, then force-degrade stragglers —
		// they answer soundly weakened, never wrong. Only after the
		// sessions settle is the warm state snapshotted and the
		// listener shut down.
		clean := srv.Drain(*drainTimeout)
		if !clean {
			fmt.Fprintln(os.Stderr, "slicerd: drain timeout, stragglers force-degraded")
		}
		if *snapshotPath != "" {
			if err := srv.SaveSnapshot(*snapshotPath); err != nil {
				fmt.Fprintln(os.Stderr, "slicerd: snapshot save:", err)
			} else {
				fmt.Fprintln(os.Stderr, "slicerd: warm state snapshotted to", *snapshotPath)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			_ = httpSrv.Close()
		}
		return exitOK
	case err := <-errc:
		if err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "slicerd:", err)
			return exitInternal
		}
		return exitOK
	}
}
