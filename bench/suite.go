package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// suiteResult is results.json: every workload's timed and traced run.
type suiteResult struct {
	Env       envInfo                   `json:"env"`
	Quick     bool                      `json:"quick"`
	Seed      int                       `json:"seed"`
	Seconds   float64                   `json:"seconds"`
	Workloads map[string]*suiteWorkload `json:"workloads"`
}

type suiteWorkload struct {
	Window    [2]int                 `json:"frame_window"`
	Reps      int                    `json:"reps"`
	RefDigest string                 `json:"ref_digest"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	CalibMS   float64                `json:"env.calib_ms"`
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer"`
	SelfTime  []selfTime             `json:"self_time,omitempty"`
}

// runSuite runs every workload, timed then traced, each run in its own
// child process (so peak_rss_mb is that run's alone), and writes the
// collected results to <out>/<name>. It returns the file's path.
func runSuite(cfg runConfig, name string) (string, error) {
	self, err := os.Executable()
	if err != nil {
		return "", err
	}
	suite := suiteResult{Env: captureEnv(), Quick: cfg.quick, Seed: cfg.seed, Seconds: cfg.seconds,
		Workloads: map[string]*suiteWorkload{}}
	failed := 0
	for _, def := range workloads {
		sw := &suiteWorkload{}
		suite.Workloads[def.Name] = sw
		for _, trace := range []bool{false, true} {
			args := []string{
				"--workload", def.Name, "--seed", strconv.Itoa(cfg.seed),
				"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
				"--trace", traceArg(trace), "-out", cfg.outDir,
			}
			if cfg.quick {
				args = append(args, "-quick")
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			runErr := cmd.Run()
			var res runResult
			if err := readJSON(runFile(cfg.outDir, def.Name, trace), &res); err != nil {
				return "", fmt.Errorf("%s trace=%v: %v (child: %v)", def.Name, trace, err, runErr)
			}
			if runErr != nil || !res.Correct {
				failed++
			}
			if trace {
				sw.PerLayer, sw.SelfTime = res.Metrics, res.SelfTime
				sw.Correct = sw.Correct && res.Correct
			} else {
				sw.Window, sw.Reps, sw.RefDigest = res.Window, res.Reps, res.RefDigest
				sw.Correct, sw.CalibMS, sw.EndToEnd = res.Correct, res.CalibMS, res.Metrics
			}
			sw.Attempted += res.Attempted
			sw.Failed += res.Failed
		}
	}
	path := filepath.Join(cfg.outDir, name)
	if err := writeJSON(path, suite); err != nil {
		return "", err
	}
	fmt.Printf("wrote %s\n", path)
	if failed > 0 {
		return path, fmt.Errorf("%d runs failed or delivered wrong frames", failed)
	}
	return path, nil
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// calibTolerance is how far env.calib_ms may differ between two sets
// before their timings are not comparable: the machine changed speed.
const calibTolerance = 0.05

// compareFiles prints, per (workload, end-to-end metric), how much worse
// set b is than set a, against the metric's bound. A pair whose
// calibration kernels differ by more than calibTolerance is unresolved,
// not a breach. It returns the number of breaches.
func compareFiles(pathA, pathB string, out io.Writer) (int, error) {
	var a, b suiteResult
	if err := readJSON(pathA, &a); err != nil {
		return 0, err
	}
	if err := readJSON(pathB, &b); err != nil {
		return 0, err
	}
	if a.Quick || b.Quick {
		return 0, fmt.Errorf("refusing to compare -quick results: smoke runs are not measurements")
	}
	breaches := 0
	fmt.Fprintf(out, "%-26s %-14s %12s %12s %9s %7s  %s\n", "workload", "metric", "a", "b", "worse by", "bound", "verdict")
	for _, def := range workloads {
		wa, wb := a.Workloads[def.Name], b.Workloads[def.Name]
		if wa == nil || wb == nil {
			return breaches, fmt.Errorf("workload %s missing from one set", def.Name)
		}
		drift := math.Abs(ratio(wb.CalibMS-wa.CalibMS, wa.CalibMS))
		for _, d := range endToEnd {
			va, vb := wa.EndToEnd[d.Name].Value, wb.EndToEnd[d.Name].Value
			worse := ratio(vb-va, va)
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case worse <= d.Bound:
			case drift > calibTolerance:
				verdict = fmt.Sprintf("unresolved (env.calib_ms moved %.1f%%)", 100*drift)
			default:
				verdict = "BREACH"
				breaches++
			}
			fmt.Fprintf(out, "%-26s %-14s %12.4f %12.4f %+8.1f%% %6.0f%%  %s\n",
				def.Name, d.Name, va, vb, 100*worse, 100*d.Bound, verdict)
		}
		if wa.Failed+wb.Failed > 0 {
			fmt.Fprintf(out, "%-26s wrong or missing frames: a %d, b %d  BREACH\n", def.Name, wa.Failed, wb.Failed)
			breaches++
		}
	}
	return breaches, nil
}
