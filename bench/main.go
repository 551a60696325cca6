// Command bench is nowrender's wall-clock benchmark: Table 1 on the real
// clock, five workloads, end-to-end and per-layer metrics, and a traced
// run. See README.md in this directory.
//
//	bash bench/run.sh --workload newton-fc --seed 1 --seconds 14 --trace 0
//	bash bench/run.sh                       # every workload, both modes -> bench/out/results.json
//	bash bench/run.sh -aa                   # the suite twice, compared with itself
//	bash bench/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

type runConfig struct {
	workload string
	seed     int
	seconds  float64
	trace    bool
	quick    bool
	corrupt  bool
	outDir   string
}

// envInfo is the header every result carries.
type envInfo struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       string `json:"gogc"`
	Workers    int    `json:"workers"`
}

func captureEnv() envInfo {
	commit, gogc := os.Getenv("NOWBENCH_COMMIT"), os.Getenv("GOGC")
	if commit == "" {
		commit = "unknown"
	}
	if gogc == "" {
		gogc = "100 (default)"
	}
	return envInfo{
		Commit: commit, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GOGC: gogc, Workers: workerCount(),
	}
}

// metricValue is one reported metric: the summary of N samples (for a
// timing the fastest, otherwise the median), with the median, the range
// (fewer than 20 samples, so no tail percentile is claimed) and the
// samples in the order they were made.
type metricValue struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Median  float64   `json:"median"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples,omitempty"`
}

// runResult is one run of one workload, written in full to
// <out>/run-<workload>-trace<0|1>.json.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      int                    `json:"seed"`
	Trace     bool                   `json:"trace"`
	Quick     bool                   `json:"quick"`
	Env       envInfo                `json:"env"`
	Window    [2]int                 `json:"frame_window"`
	Reps      int                    `json:"reps"`
	RefDigest string                 `json:"ref_digest"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	CalibMS   float64                `json:"calib_ms"`
	Metrics   map[string]metricValue `json:"metrics"`
	SelfTime  []selfTime             `json:"self_time,omitempty"`
	Errors    []string               `json:"errors,omitempty"`
}

// contractLine is the last line of standard output: exactly the keys the
// driver reads.
func (r *runResult) contractLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]mv{}
	for name, v := range r.Metrics {
		ms[name] = mv{v.Value, v.Unit}
	}
	line, _ := json.Marshal(map[string]any{
		"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": ms,
	})
	return string(line)
}

func summarise(s sample, value float64, unit string) metricValue {
	return metricValue{Value: value, Unit: unit, Median: s.median(), Min: s.min(), Max: s.max(), N: len(s), Samples: s}
}

// repCount scales a workload's repetitions with --seconds. The count
// depends only on the arguments, never on how long anything took.
func repCount(base int, secs float64, quick bool) int {
	if quick {
		return 1
	}
	n := int(math.Round(float64(base) * secs / runSeconds))
	if n < 1 {
		n = 1
	}
	return n
}

// timedRun is one repetition with its CPU and allocation deltas.
func timedRun(w workload, tr *tracer) (*repOut, error) {
	runtime.GC()
	alloc, cpu := totalAlloc(), cpuTime()
	out, err := w.run(tr)
	out.cpu, out.alloc = cpuTime()-cpu, totalAlloc()-alloc
	return out, err
}

// judge runs the oracle over one repetition and folds it into res. A
// repetition that returned an error loses all its frames.
func judge(w workload, out *repOut, runErr error, res *runResult) bool {
	b := w.common()
	if out.svc == nil {
		if runErr != nil {
			out.attempted, out.failed = b.frames(), b.frames()
		} else {
			out.attempted, out.failed = b.check(out.frames)
		}
	}
	res.Attempted += out.attempted
	res.Failed += out.failed
	if runErr != nil {
		res.Errors = append(res.Errors, runErr.Error())
	}
	return runErr == nil
}

// runWorkload is one run of one workload: the timed repetitions
// (cfg.trace false) or the traced run (cfg.trace true).
func runWorkload(cfg runConfig, log io.Writer) (*runResult, error) {
	def := findWorkload(cfg.workload)
	if def == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	sz := fullSizes
	if cfg.quick {
		sz = quickSizes
	}
	w := def.New(sz, cfg.seed)
	defer w.close()
	b := w.common()
	res := &runResult{
		Workload: def.Name, Seed: cfg.seed, Trace: cfg.trace, Quick: cfg.quick, Env: captureEnv(),
		Window: [2]int{b.start, b.end}, Metrics: map[string]metricValue{},
	}
	var err error
	if cfg.trace {
		err = tracedRun(cfg, def, w, res)
	} else {
		err = timedReps(cfg, def, w, res)
	}
	if err != nil {
		return res, err
	}
	res.RefDigest = b.digest()
	res.Correct = res.Failed == 0 && len(res.Errors) == 0

	fmt.Fprintf(log, "%s seed %d: %s frames [%d,%d) at %dx%d, %d workers, reference %s\n",
		def.Name, cfg.seed, b.spec, b.start, b.end, b.w, b.h, b.workers, res.RefDigest)
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	for _, d := range defs {
		v := res.Metrics[d.Name]
		fmt.Fprintf(log, "  %-42s %14.4f %-8s", d.Name, v.Value, v.Unit)
		if v.N > 1 {
			fmt.Fprintf(log, " of %d: median %.4f min %.4f max %.4f", v.N, v.Median, v.Min, v.Max)
		}
		fmt.Fprintln(log)
	}
	for i, st := range res.SelfTime {
		if i == 0 {
			fmt.Fprintln(log, "  self time by span (span - children):")
		}
		if i < 12 {
			fmt.Fprintf(log, "    %-40s x%-5d total %10.2f ms  self %10.2f ms\n", st.Name, st.Count, millis(st.Total), millis(st.Self))
		}
	}
	fmt.Fprintf(log, "  failed %d of %d attempted; env.calib_ms %.3f\n", res.Failed, res.Attempted, res.CalibMS)
	for _, e := range res.Errors {
		fmt.Fprintf(log, "  error: %s\n", e)
	}
	return res, nil
}

func timedReps(cfg runConfig, def *workloadDef, w workload, res *runResult) error {
	sz := w.common().sz
	// Set up several times; the last set-up stays.
	var setups sample
	for i := 0; i < sz.Setups; i++ {
		start := time.Now()
		if err := w.setup(nil); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		if err := w.prepare(false); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, seconds(time.Since(start)))
		if i+1 < sz.Setups {
			w.finish()
			w.close()
		}
	}
	res.Reps = repCount(def.BaseReps, cfg.seconds, cfg.quick)
	var makespan, cpu, alloc, calib sample
	for r := 0; r < res.Reps; r++ {
		calib = append(calib, millis(calibrate()))
		if r > 0 {
			if err := w.prepare(false); err != nil {
				return fmt.Errorf("rep %d: %w", r, err)
			}
		}
		w.common().corrupt = cfg.corrupt && r == 0
		out, err := timedRun(w, nil)
		w.finish()
		if !judge(w, out, err, res) {
			continue
		}
		makespan = append(makespan, seconds(out.makespan))
		cpu = append(cpu, seconds(out.cpu))
		alloc = append(alloc, mb(out.alloc))
	}
	if len(makespan) == 0 {
		return fmt.Errorf("every repetition failed: %v", res.Errors)
	}
	res.CalibMS = calib.median()
	// A timing is its fastest sample: on the shared box interference only
	// ever adds time (README.md, "The machine"), so the fastest repetition
	// is the one that measured the program and not the neighbours.
	res.Metrics["setup_s"] = summarise(setups, setups.min(), "s")
	res.Metrics["makespan_s"] = summarise(makespan, makespan.min(), "s")
	res.Metrics["cpu_s"] = summarise(cpu, cpu.min(), "s")
	res.Metrics["alloc_mb"] = summarise(alloc, alloc.median(), "MB")
	return nil
}

func tracedRun(cfg runConfig, def *workloadDef, w workload, res *runResult) error {
	sz := w.common().sz
	tr := newTracer()
	done := tr.begin("setup")
	err := w.setup(tr)
	done()
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	// Alternate untraced and traced repetitions; the difference between
	// their makespans is what tracing costs.
	var plain, traced, first, calib sample
	var last *repOut
	for p := 0; p < sz.TracePairs; p++ {
		calib = append(calib, millis(calibrate()))
		for _, record := range []bool{false, true} {
			if err := w.prepare(record); err != nil {
				return fmt.Errorf("pair %d: %w", p, err)
			}
			var t *tracer
			if record {
				t = tr
				tr.setRep(p + 1)
			}
			w.common().corrupt = cfg.corrupt && p == 0 && record
			done := t.begin("rep")
			out, err := timedRun(w, t)
			done()
			w.finish()
			if !judge(w, out, err, res) {
				return fmt.Errorf("pair %d: %w", p, err)
			}
			first = append(first, seconds(out.firstFrame))
			if record {
				traced, last = append(traced, seconds(out.makespan)), out
			} else {
				plain = append(plain, seconds(out.makespan))
			}
		}
	}
	res.Reps = 2 * sz.TracePairs
	tr.setRep(0)
	// Read before the probes below add their own allocations to it.
	m := metrics{"peak_rss_mb": peakRSSMB()}
	done = tr.begin("layers")
	err = w.layers(tr, last, m)
	done()
	if err != nil {
		return fmt.Errorf("layers: %w", err)
	}
	res.CalibMS = calib.median()
	m["env.calib_ms"] = res.CalibMS
	m["first_frame_s"] = first.median()
	// Best against best: the quietest repetition of each kind is the one
	// least disturbed by the machine.
	m["timeline.overhead_pct"] = 100 * ratio(traced.min()-plain.min(), plain.min())
	known := map[string]bool{}
	for _, d := range perLayer {
		known[d.Name] = true
		res.Metrics[d.Name] = metricValue{Value: m[d.Name], Unit: d.Unit, Median: m[d.Name], Min: m[d.Name], Max: m[d.Name], N: 1}
	}
	for name := range m {
		if !known[name] {
			return fmt.Errorf("layers reported %q, which the catalogue does not list", name)
		}
	}
	res.SelfTime = tr.selfTimes()

	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	if err := tr.writeChrome(filepath.Join(cfg.outDir, "trace-"+def.Name+".json"), def.Name); err != nil {
		return err
	}
	if last.tl != nil {
		f, err := os.Create(filepath.Join(cfg.outDir, "timeline-"+def.Name+".json"))
		if err != nil {
			return err
		}
		if err := last.tl.WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return nil
}

// writeJSON writes v, indented, to path.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// traceArg is the --trace value that selects a mode.
func traceArg(trace bool) string {
	if trace {
		return "1"
	}
	return "0"
}

func runFile(outDir, workload string, trace bool) string {
	return filepath.Join(outDir, "run-"+workload+"-trace"+traceArg(trace)+".json")
}

func main() {
	runtime.GOMAXPROCS(benchProcs)
	var cfg runConfig
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "run one workload (default: every workload, each in its own child process)")
	flag.IntVar(&cfg.seed, "seed", 1, "picks the frame window")
	flag.Float64Var(&cfg.seconds, "seconds", runSeconds, "seconds of timed repetitions a run is sized for (scales the fixed repetition counts)")
	flag.IntVar(&traceFlag, "trace", 0, "1 = the traced run: per-layer metrics, bench spans, program timeline")
	flag.BoolVar(&cfg.quick, "quick", false, "smoke size (60x80x8, 1 repetition); results are flagged and refused by -compare")
	flag.StringVar(&cfg.outDir, "out", filepath.Join("bench", "out"), "directory for results, traces and timelines")
	compare := flag.Bool("compare", false, "compare two results.json files: -compare a.json b.json")
	aa := flag.Bool("aa", false, "run the whole suite twice and compare the two sets")
	printManifest := flag.Bool("manifest", false, "print BENCHMARK.json as the catalogue defines it")
	flag.Parse()
	cfg.trace = traceFlag != 0

	switch {
	case *printManifest:
		data, _ := json.MarshalIndent(manifest(), "", "  ")
		fmt.Println(string(data))
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare wants two results files"))
		}
		breaches, err := compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout)
		if err != nil {
			fatal(err)
		}
		if breaches > 0 {
			os.Exit(1)
		}
	case *aa:
		a, errA := runSuite(cfg, "results-a.json")
		b, errB := runSuite(cfg, "results-b.json")
		if errA != nil || errB != nil {
			fatal(fmt.Errorf("suite failed: %v, %v", errA, errB))
		}
		breaches, err := compareFiles(a, b, os.Stdout)
		if err != nil {
			fatal(err)
		}
		if breaches > 0 {
			os.Exit(1)
		}
	case cfg.workload == "":
		if _, err := runSuite(cfg, "results.json"); err != nil {
			fatal(err)
		}
	default:
		res, err := runWorkload(cfg, os.Stdout)
		if err != nil {
			fatal(err)
		}
		if err := writeJSON(runFile(cfg.outDir, cfg.workload, cfg.trace), res); err != nil {
			fatal(err)
		}
		fmt.Println(res.contractLine())
		os.Exit(res.exitCode())
	}
}

// exitCode is non-zero when any delivered frame was missing or wrong.
func (r *runResult) exitCode() int {
	if r.Correct {
		return 0
	}
	return 1
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
