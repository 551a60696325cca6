package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/ on http.DefaultServeMux
	"strconv"
	"time"

	"nowrender/internal/buildinfo"
	"nowrender/internal/cluster"
	"nowrender/internal/faulty"
	"nowrender/internal/fleetd"
	"nowrender/internal/msg"
	"nowrender/internal/service"
)

// serveFlags declares `now serve`, the long-lived render-job service: an
// HTTP API over the render farm with a priority job queue, bounded
// concurrency and a content-addressed frame cache (README.md shows the
// API). A signal drains it: admission stops, queued and running jobs run
// to completion within -drain-timeout, their event streams flush, and
// only then does the HTTP server close.
func serveFlags(fs *flag.FlagSet) runFunc {
	var cfg service.Config
	listen := fs.String("listen", ":8080", usage["listen"])
	fs.IntVar(&cfg.MaxConcurrent, "max-jobs", 2, "max concurrently running jobs")
	fs.IntVar(&cfg.QueueCap, "queue-cap", 256, "max queued jobs")
	cacheMB := fs.Int64("cache-mb", 64, "frame cache budget in MiB (0 = default, negative = disabled)")
	fs.StringVar(&cfg.DefaultDriver, "driver", "virtual", "default farm driver: virtual | local")
	fs.IntVar(&cfg.Workers, "workers", 0, usage["workers"])
	machines := fs.Int("machines", 0, "virtual NOW size (0 = the paper's 3-machine testbed)")
	fs.IntVar(&cfg.Threads, "threads", 0, usage["threads"])
	farmFlags(fs, &cfg.Liveness, &cfg.Speculate, &cfg.WireDelta, &cfg.WireSpanCodec)
	chaos := fs.String("chaos", "", usage["chaos"])
	fs.BoolVar(&cfg.Timeline, "job-timelines", false, "record a per-job cluster timeline, served on GET /jobs/{id}/timeline")
	pprofOn := fs.Bool("pprof", false, "expose net/http/pprof endpoints under /debug/pprof/")

	tenants := fs.String("tenants", "", "tenant allow list with fair-share weights, e.g. alice=3,bob (empty = any tenant, weight 1)")
	fs.BoolVar(&cfg.Fair, "fair", false, "schedule across tenants by weighted fair queuing instead of priority order")
	fs.IntVar(&cfg.MaxQueuedPerTenant, "max-queued-per-tenant", 0, "max queued jobs per tenant (0 = unlimited)")
	fs.IntVar(&cfg.FleetCapacity, "fleet-capacity", 0, "worker slots farm runs may lease concurrently (0 = unlimited)")
	fleetBroker := fs.String("fleet-broker", "", "address of the now fleetd broker; lease worker slots from the shared broker instead of a private pool (multi-master mode)")
	fs.StringVar(&cfg.ReplicaID, "replica-id", "", "this replica's name in a multi-master deployment (default: the listen address)")
	leaseTerm := fs.Duration("lease-term", 0, "broker lease term to request (0 = broker default); only with -fleet-broker")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "grace period for running jobs to finish on SIGTERM before they are cancelled")

	return func(ctx context.Context, _ []string, stdout, _ io.Writer) error {
		var err error
		if cfg.Tenants, err = parseNamed("tenants", *tenants, 1, parseFloat); err != nil {
			return err
		}
		cfg.CacheBytes = *cacheMB << 20
		if *machines > 0 {
			cfg.Machines = cluster.Uniform(*machines, 1.0, 64)
		}
		if cfg.Faults, err = parseChaos(*chaos, cfg); err != nil {
			return err
		}
		if *fleetBroker == "" && *leaseTerm != 0 {
			return usagef("-lease-term needs -fleet-broker")
		}
		if *fleetBroker != "" {
			// Multi-master: this replica draws worker capacity from the
			// shared broker instead of its private pool. A crashed replica
			// stops renewing and its slots return to the pool for survivors.
			if cfg.ReplicaID == "" {
				cfg.ReplicaID = *listen
			}
			rp, err := fleetd.NewReplicaPool(fleetd.ClientConfig{
				Replica: cfg.ReplicaID,
				Dial:    func() (msg.Conn, error) { return msg.Dial(*fleetBroker) },
				Term:    *leaseTerm,
			})
			if err != nil {
				return err
			}
			defer rp.Close()
			cfg.Leaser = rp
		}
		l, err := net.Listen("tcp", *listen)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "now serve %s listening on %s (driver=%s, max-jobs=%d)\n",
			buildinfo.Version(), l.Addr(), cfg.DefaultDriver, cfg.MaxConcurrent)
		return serveHTTP(ctx, stdout, l, service.New(cfg), *pprofOn, *drainTimeout)
	}
}

func parseFloat(s string) (float64, error) { return strconv.ParseFloat(s, 64) }

// parseChaos parses a -chaos plan and refuses a protect= name that names
// no worker of either driver.
func parseChaos(spec string, cfg service.Config) (*faulty.Plan, error) {
	plan, err := faulty.ParsePlan(spec)
	if plan == nil || err != nil {
		return plan, err
	}
	machines := cfg.Machines
	if len(machines) == 0 {
		machines = cluster.PaperTestbed() // the service's default
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = len(machines)
	}
	return plan, checkProtect(plan, machines, workers)
}

func serveHTTP(ctx context.Context, stdout io.Writer, l net.Listener, svc *service.Service, pprofOn bool, drainTimeout time.Duration) error {
	handler := svc.Handler()
	if pprofOn {
		// Mount the profiling endpoints on an outer mux so the service
		// handler stays unaware of them; net/http/pprof registers them
		// under /debug/pprof/ on the default mux.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.Handle("/debug/pprof/", http.DefaultServeMux)
		handler = mux
	}
	srv := &http.Server{Handler: handler}
	if err := serveUntil(ctx, func() error { return srv.Serve(l) }); err != nil {
		svc.Close()
		return err
	}

	// Drain before closing the HTTP server: admission stops, queued and
	// running jobs finish, and their SSE streams receive terminal events
	// — so Shutdown below finds no live streams to wait out. Shutting
	// the server first would hang on open event streams while Close
	// killed the very jobs clients were watching.
	fmt.Fprintf(stdout, "now serve: draining (grace %s)\n", drainTimeout)
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), drainTimeout)
	defer cancelDrain()
	if err := svc.Drain(drainCtx); err != nil {
		fmt.Fprintln(stdout, "now serve: drain timed out, cancelling remaining jobs")
	}
	fmt.Fprintln(stdout, "now serve: shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := srv.Shutdown(shutCtx)
	svc.Close()
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
