package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nowrender/internal/timeline"
)

func writeTrace(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// writeRealTrace writes a trace the real recorder produced.
func writeRealTrace(t *testing.T) string {
	t.Helper()
	rec := timeline.New(0)
	tr := rec.Track("w0/main")
	s := tr.Begin()
	tr.EndArg(timeline.OpFrame, 0, s, 1)
	path := filepath.Join(t.TempDir(), "real.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Snapshot().WriteChromeTrace(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunRejectsDegenerateTraces: an empty file, a truncated dump, and
// a syntactically-valid trace with zero events must all fail — an
// analyser that prints an empty report for them would hide a broken
// -timeline pipeline from any script gating on its exit status.
func TestRunRejectsDegenerateTraces(t *testing.T) {
	cases := []struct {
		name, content, wantErr string
	}{
		{"empty.json", "", "not Chrome trace JSON"},
		{"truncated.json", `{"traceEvents":[{"ph":"X","name":"fr`, "not Chrome trace JSON"},
		{"no-events.json", `{"traceEvents":[]}`, "no events"},
		{"bare-empty.json", `[]`, "no events"},
		{"meta-only.json", `{"traceEvents":[{"ph":"M","name":"thread_name","pid":1,"tid":1,"args":{"name":"w0/main"}}]}`, "no events"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, _, stderr := runNow("trace", writeTrace(t, c.name, c.content))
			if code != 1 {
				t.Fatalf("now trace accepted %s: exit %d", c.name, code)
			}
			if !strings.Contains(stderr, c.wantErr) {
				t.Errorf("error %q does not mention %q", stderr, c.wantErr)
			}
		})
	}
}

// TestRunAcceptsRealTrace: a trace produced by the real recorder must
// analyse cleanly end to end.
func TestRunAcceptsRealTrace(t *testing.T) {
	if code, _, stderr := runNow("trace", writeRealTrace(t)); code != 0 {
		t.Fatalf("now trace rejected a real trace: exit %d %s", code, stderr)
	}
}

// TestRunRejectsMissingFile covers the open-error path.
func TestRunRejectsMissingFile(t *testing.T) {
	if code, _, _ := runNow("trace", filepath.Join(t.TempDir(), "absent.json")); code != 1 {
		t.Fatalf("now trace accepted a missing file: exit %d", code)
	}
}
