// Command nowserve runs the long-lived render-job service: an HTTP API
// over the render farm with a priority job queue, bounded concurrency
// and a content-addressed frame cache.
//
//	nowserve -listen :8080 -max-jobs 2 -cache-mb 64 -driver virtual
//
//	# submit a job, stream progress, fetch a frame
//	curl -s -X POST localhost:8080/jobs -d '{"scene":"newton:10","w":120,"h":160}'
//	curl -N localhost:8080/jobs/job-0001/events
//	curl -s localhost:8080/jobs/job-0001/frames/0 -o frame0.tga
//	curl -s localhost:8080/metrics
//
// Multi-tenant operation: -tenants installs an allow list with
// fair-share weights, each tenant named once; -fair schedules across
// tenants by weighted fair queuing instead of priority order; and
// -max-queued-per-tenant caps any one tenant's queue backlog:
//
//	nowserve -tenants alice=3,bob -fair -max-queued-per-tenant 8
//
// SIGINT/SIGTERM drain the service gracefully: admission stops (new
// submissions are rejected), queued and running jobs run to completion
// within -drain-timeout, their event streams flush, and only then does
// the HTTP server close.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"nowrender/internal/buildinfo"
	"nowrender/internal/cluster"
	"nowrender/internal/faulty"
	"nowrender/internal/fleetd"
	"nowrender/internal/msg"
	"nowrender/internal/service"
)

func main() {
	var (
		listen   = flag.String("listen", ":8080", "HTTP listen address")
		maxJobs  = flag.Int("max-jobs", 2, "max concurrently running jobs")
		queueCap = flag.Int("queue-cap", 256, "max queued jobs")
		cacheMB  = flag.Int64("cache-mb", 64, "frame cache budget in MiB (0 = default, negative = disabled)")
		cacheTTL = flag.Duration("cache-ttl", 0, "expire cached frames this long after rendering (0 = never)")
		driver   = flag.String("driver", "virtual", "default farm driver: virtual | local")
		workers  = flag.Int("workers", 0, "goroutine workers for the local driver (0 = machine count)")
		machines = flag.Int("machines", 0, "virtual NOW size (0 = the paper's 3-machine testbed)")
		threads  = flag.Int("threads", 0, "default intra-frame render threads per farm worker (0 = all cores)")

		heartbeat    = flag.Duration("heartbeat", 0, "farm master->worker ping interval for local-driver jobs (0 = off)")
		liveness     = flag.Duration("liveness", 0, "retire a farm worker silent this long (0 = 4x heartbeat)")
		stall        = flag.Duration("stall", 0, "retire a farm worker holding a task without progress this long (0 = off)")
		frameRetries = flag.Int("frame-retries", 0, "per-frame requeue budget before the master renders locally (0 = 3)")
		speculate    = flag.Bool("speculate", false, "speculatively re-issue the slowest in-flight farm task")
		jobRetries   = flag.Int("max-job-retries", 0, "cap on a job spec's retries field (0 = 5)")
		chaos        = flag.String("chaos", "", "fault-injection plan for local-driver farm runs, e.g. seed=7,drop=0.01,protect=worker00")
		wireDelta    = flag.Bool("wire-delta", false, "ship dirty-span delta frames instead of full regions")
		wireCompress = flag.Bool("wire-compress", false, "compress frame payloads with the span codec")
		dfbSinks     = flag.Int("dfb", 0, "route local-driver pixels through this many in-process compositor sinks instead of the farm master (0 = off)")
		timelineOn   = flag.Bool("timeline", false, "record a per-job cluster timeline, served on GET /jobs/{id}/timeline")
		pprofOn      = flag.Bool("pprof", false, "expose net/http/pprof endpoints under /debug/pprof/")
		version      = flag.Bool("version", false, "print version and exit")

		tenants      = flag.String("tenants", "", "tenant allow list with fair-share weights, e.g. alice=3,bob (empty = any tenant, weight 1)")
		fair         = flag.Bool("fair", false, "schedule across tenants by weighted fair queuing instead of priority order")
		tenantQueue  = flag.Int("max-queued-per-tenant", 0, "max queued jobs per tenant (0 = unlimited)")
		fleetCap     = flag.Int("fleet-capacity", 0, "worker slots farm runs may lease concurrently (0 = unlimited)")
		fleetBroker  = flag.String("fleet-broker", "", "nowfleetd address; lease worker slots from the shared broker instead of a private pool (multi-master mode)")
		replicaID    = flag.String("replica-id", "", "this replica's name in a multi-master deployment (default: the listen address)")
		leaseTerm    = flag.Duration("lease-term", 0, "broker lease term to request (0 = broker default); only with -fleet-broker")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "grace period for running jobs to finish on SIGTERM before they are cancelled")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		// A stray positional arg silently stops flag parsing, so flags
		// after it would be ignored; fail loudly instead.
		fmt.Fprintf(os.Stderr, "nowserve: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if *version {
		fmt.Println("nowserve", buildinfo.Version())
		return
	}
	tenantWeights, err := parseTenants(*tenants)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nowserve:", err)
		os.Exit(1)
	}
	cfg := service.Config{
		MaxConcurrent: *maxJobs,
		QueueCap:      *queueCap,
		CacheBytes:    *cacheMB << 20,
		CacheTTL:      *cacheTTL,
		DefaultDriver: *driver,
		Workers:       *workers,
		Threads:       *threads,
		Heartbeat:     *heartbeat,
		Liveness:      *liveness,
		StallTimeout:  *stall,
		FrameRetries:  *frameRetries,
		Speculate:     *speculate,
		MaxJobRetries: *jobRetries,
		WireDelta:     *wireDelta,
		WireSpanCodec: *wireCompress,
		DFBSinks:      *dfbSinks,
		Timeline:      *timelineOn,

		Tenants:            tenantWeights,
		Fair:               *fair,
		MaxQueuedPerTenant: *tenantQueue,
		FleetCapacity:      *fleetCap,
		ReplicaID:          *replicaID,
	}
	if *machines > 0 {
		cfg.Machines = cluster.Uniform(*machines, 1.0, 64)
	}
	plan, err := faulty.ParsePlan(*chaos)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nowserve:", err)
		os.Exit(1)
	}
	if plan != nil {
		cfg.FaultWrap = plan.Wrap
	}
	if *fleetBroker != "" {
		// Multi-master: this replica draws worker capacity from the shared
		// nowfleetd broker instead of its private pool. A crashed replica
		// stops renewing and its slots return to the pool for survivors.
		if cfg.ReplicaID == "" {
			cfg.ReplicaID = *listen
		}
		addr := *fleetBroker
		rp, err := fleetd.NewReplicaPool(fleetd.ClientConfig{
			Replica: cfg.ReplicaID,
			Dial:    func() (msg.Conn, error) { return msg.Dial(addr) },
			Term:    *leaseTerm,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "nowserve:", err)
			os.Exit(1)
		}
		defer rp.Close()
		cfg.Leaser = rp
	} else if *leaseTerm != 0 {
		fmt.Fprintln(os.Stderr, "nowserve: -lease-term needs -fleet-broker")
		os.Exit(2)
	}
	if err := run(*listen, *driver, cfg, *pprofOn, *drainTimeout); err != nil {
		fmt.Fprintln(os.Stderr, "nowserve:", err)
		os.Exit(1)
	}
}

// parseTenants reads "alice=3,bob,carol=2" into the service's tenant
// weight map: bare names get weight 1; a name may appear once.
func parseTenants(s string) (map[string]float64, error) {
	if s == "" {
		return nil, nil
	}
	out := map[string]float64{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, weightStr, hasWeight := strings.Cut(part, "=")
		name = strings.TrimSpace(name)
		if name == "" {
			return nil, fmt.Errorf("bad -tenants entry %q", part)
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("tenant %q repeated in -tenants", name)
		}
		weight := 1.0
		if hasWeight {
			w, err := strconv.ParseFloat(strings.TrimSpace(weightStr), 64)
			if err != nil || w <= 0 {
				return nil, fmt.Errorf("bad -tenants weight in %q", part)
			}
			weight = w
		}
		out[name] = weight
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -tenants list %q", s)
	}
	return out, nil
}

func run(listen, driver string, cfg service.Config, pprofOn bool, drainTimeout time.Duration) error {
	svc := service.New(cfg)
	var handler http.Handler = svc.Handler()
	if pprofOn {
		// Mount the profiling endpoints on an outer mux so the service
		// handler stays unaware of them. Index serves everything under
		// /debug/pprof/ except the four special handlers.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
	}
	srv := &http.Server{Addr: listen, Handler: handler}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	fmt.Printf("nowserve %s\n", buildinfo.Version())
	fmt.Printf("nowserve listening on %s (driver=%s, max-jobs=%d)\n", listen, driver, cfg.MaxConcurrent)

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}

	// Drain before closing the HTTP server: admission stops, queued and
	// running jobs finish, and their SSE streams receive terminal events
	// — so Shutdown below finds no live streams to wait out. Shutting
	// the server first would hang on open event streams while Close
	// killed the very jobs clients were watching.
	fmt.Printf("nowserve: draining (grace %s)\n", drainTimeout)
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), drainTimeout)
	defer cancelDrain()
	if err := svc.Drain(drainCtx); err != nil {
		fmt.Println("nowserve: drain timed out, cancelling remaining jobs")
	}
	fmt.Println("nowserve: shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := srv.Shutdown(shutCtx)
	svc.Close()
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
