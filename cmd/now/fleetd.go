package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"strconv"

	"nowrender/internal/buildinfo"
	"nowrender/internal/fleetd"
	"nowrender/internal/msg"
)

// fleetdFlags declares `now fleetd`, the fleet broker of the
// multi-master control plane: the one daemon that owns worker capacity
// when several `now serve -fleet-broker` replicas share one pool. Its
// slots are fixed at start (-capacity and -members); replicas acquire
// time-bounded, renewable leases on those slots. A
// replica that crashes stops renewing, its leases expire within one
// term, and the slots return to the pool for the surviving replicas.
// Held leases die with the process: a broker restart voids them, and
// clients detect the new epoch and re-acquire.
func fleetdFlags(fs *flag.FlagSet) runFunc {
	var cfg fleetd.BrokerConfig
	listen := fs.String("listen", ":7948", usage["listen"])
	fs.IntVar(&cfg.Capacity, "capacity", 0, "base worker-slot capacity owned by the broker itself (0 = members only)")
	members := fs.String("members", "", "static members with slot counts, e.g. ws01=4,ws02=2, each named once")
	fs.DurationVar(&cfg.Term, "term", 0, "default lease term (0 = 15s); a replica silent this long loses its workers")
	tlOut := fs.String("timeline", "", usage["timeline"])

	return func(ctx context.Context, _ []string, stdout, _ io.Writer) error {
		static, err := parseNamed("members", *members, 0, strconv.Atoi)
		if err != nil {
			return err
		}
		if cfg.Capacity <= 0 && len(static) == 0 {
			return usagef("no capacity (-capacity or -members required)")
		}
		l, err := msg.Listen(*listen)
		if err != nil {
			return err
		}
		defer l.Close()
		cfg.Timeline = recorder(*tlOut)
		b := fleetd.NewBroker(cfg)
		for name, slots := range static {
			if err := b.Join(name, slots); err != nil {
				return usagef("-members: %v", err)
			}
		}
		srv := fleetd.NewServer(b)
		defer srv.Close()
		fmt.Fprintf(stdout, "now fleetd %s listening on %s (capacity=%d, term=%s, epoch=%d)\n",
			buildinfo.Version(), l.Addr(), b.Stats().Capacity, b.DefaultTerm(), b.Epoch())

		if err := serveUntil(ctx, func() error { return srv.Serve(l) }); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "now fleetd: shutting down")
		l.Close()
		srv.Close()
		st := b.Stats()
		fmt.Fprintf(stdout, "now fleetd: %d grants, %d renews, %d expiries, %d releases\n",
			st.Grants, st.Renews, st.Expiries, st.Releases)
		tl := cfg.Timeline.Snapshot()
		tl.Meta["broker-epoch"] = fmt.Sprint(b.Epoch())
		return writeTimeline(stdout, *tlOut, tl)
	}
}
