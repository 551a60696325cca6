package service

import (
	"bytes"
	"context"
	"flag"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"nowrender/internal/farm"
	"nowrender/internal/faulty"
)

var updateGolden = flag.Bool("update", false, "rewrite the /metrics and job status goldens from the current service")

// wallClock matches what reads the wall clock — uptime, the jobs' queue
// and run seconds, lease-wait seconds, the status's times and *_ms
// fields — so the goldens can pin every other byte.
var wallClock = []*regexp.Regexp{
	regexp.MustCompile(`(?m)^(nowrender_(?:uptime_seconds|job_queue_seconds|job_run_seconds|fleet_lease_wait_seconds_total)\S* ).*$`),
	regexp.MustCompile(`("(?:submitted|started|finished|\w+_ms)": )[^,\n]*`),
}

// TestMetricsAndStatusGolden pins the full /metrics text and every job's
// status JSON, byte for byte but for wall-clock values, after one fixed
// virtual-driver run: a delta-and-span-coded job that loses two workers
// and two deltas' bases, a cache-served repeat of it, a tenant-quota
// rejection and a two-shard object-space job that loses the same. The
// fault, wire and object-space families each carry non-zero values;
// `go test -run Golden -update` rewrites the files.
func TestMetricsAndStatusGolden(t *testing.T) {
	plan := &faulty.Plan{
		Seed: 1,
		Rules: []faulty.Rule{
			{Tag: farm.TagFrameDone, Dir: faulty.SendOnly, After: 1, Action: faulty.Drop},
			{Tag: farm.TagFrameDone, Dir: faulty.SendOnly, After: 3, Action: faulty.Sever},
		},
		Protect: []string{"indigo2-200"},
	}
	s := New(Config{
		MaxConcurrent: 1, MaxQueuedPerTenant: 1, FleetCapacity: 3,
		WireDelta: true, WireSpanCodec: true, Faults: plan,
	})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// Holding the whole fleet keeps the first job running, waiting for
	// its lease, so the repeat queues behind it and a third submission
	// meets the tenant's quota.
	hold, err := s.leaser.Acquire(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{Scene: "newton:6", W: 40, H: 32}
	first, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the first job to wait for its lease", func() bool { return s.leaser.Stats().Waits == 1 })
	repeat, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(spec); err == nil {
		t.Fatal("a second queued job was admitted past MaxQueuedPerTenant")
	}
	hold.Return()
	waitDone(t, s, first.ID)
	waitDone(t, s, repeat.ID)
	sharded, err := s.Submit(JobSpec{Scene: "newton:6", W: 40, H: 40, ObjSpaceShards: 2})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, sharded.ID)

	for name, path := range map[string]string{"metrics.txt": "/metrics", "status.json": "/jobs"} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, re := range wallClock {
			got = re.ReplaceAll(got, []byte("${1}<wall>"))
		}
		file := filepath.Join("testdata", "golden", name)
		if *updateGolden {
			if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(file, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(file)
		if err != nil {
			t.Fatalf("%v (run `go test -run Golden -update` to create it)", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("GET %s differs from %s:\n%s", path, file, got)
		}
	}
}
