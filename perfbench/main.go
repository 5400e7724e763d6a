// Command perfbench is the repository's benchmark. It drives r3dla
// through one of three workloads and prints what a user of each would
// see, checking every output against the in-process Lab:
//
//	sweep   a cold full-suite grid through sweep.Run (the cycle loop)
//	serve   open-loop POST /v1/runs against an in-process lab.Server
//	ladder  a fidelity-ladder dse.Explore over a 131,072-point space
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench -workload sweep -seed 1 -seconds 10 -trace 0
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it runs
// the same workload untraced and traced, and reports per-layer metrics
// derived from spans recorded around the calls into each layer, plus
// trace.overhead_pct. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. The exit code is
// non-zero when any output check fails. README.md beside this file
// explains the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// env is what every workload receives: its inputs come from seed alone.
type env struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	jobs     int    // Lab worker-pool size: one per CPU
	root     string // repository root (golden files live there)
	dir      string // scratch directory for this run, removed at exit
}

// metric is one reported number. N is its sample count; Note says how
// the number was formed when that is not obvious from the name.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"samples"`
	Note  string  `json:"note,omitempty"`
}

// outcome is one workload run's result.
type outcome struct {
	metrics   []metric
	attempted int
	failed    int
	failures  []string // the first ten failure descriptions
	meta      map[string]any
	tr        *tracer // the traced run's spans (trace mode only)
}

func (o *outcome) add(m ...metric) { o.metrics = append(o.metrics, m...) }

// check records one checked operation.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.failed++
		if len(o.failures) < 10 {
			o.failures = append(o.failures, fmt.Sprintf(format, args...))
		}
	}
}

// runDeadline bounds one invocation: a fixed allowance for set-up and
// output checks, plus twice the length of each timed phase (a traced run
// plays the timed phase twice, untraced and traced). At 20 seconds that
// is 130 s, or 170 s traced; the workloads end far sooner.
func runDeadline(seconds time.Duration, traced bool) time.Duration {
	phases := time.Duration(1)
	if traced {
		phases = 2
	}
	return 90*time.Second + 2*phases*seconds
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: sweep, serve or ladder")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "how long the timed phase measures")
	traceMode := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	root := fs.String("root", ".", "repository root")
	workdir := fs.String("workdir", ".bench_build/perfbench-work", "directory for scratch files and results")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloadFuncs[*workload]
	if !ok || *seconds <= 0 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload sweep|serve|ladder, -seconds > 0 and -trace 0|1\n")
		return 2
	}

	dir, err := os.MkdirTemp(mkdirAll(*workdir), "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	e := &env{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *traceMode == 1,
		jobs:     runtime.NumCPU(),
		root:     *root,
		dir:      dir,
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline(e.seconds, e.trace))
	defer cancel()

	out, err := fn(ctx, e)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if err := checkGoldens(ctx, e, out); err != nil {
		fmt.Fprintf(stderr, "perfbench: golden check: %v\n", err)
		return 1
	}

	meta := metadata(e)
	for k, v := range out.meta {
		meta[k] = v
	}
	if err := report(stdout, e, out, meta, *workdir); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, f := range out.failures {
		fmt.Fprintf(stderr, "perfbench: FAILED: %s\n", f)
	}
	if out.failed > 0 {
		return 1
	}
	return 0
}

var workloadFuncs = map[string]func(context.Context, *env) (*outcome, error){
	"sweep":  runSweep,
	"serve":  runServe,
	"ladder": runLadder,
}

// report prints the human-readable table, the metadata line and the
// final JSON line, and keeps a copy of both (and the spans of a traced
// run) under workdir/results.
func report(w io.Writer, e *env, out *outcome, meta map[string]any, workdir string) error {
	decl, err := declared(out.metrics, e.trace)
	if err != nil {
		return err
	}
	metrics := make(map[string]any, len(decl))
	for _, m := range decl {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not a number (%v)", m.Name, m.Value)
		}
		metrics[m.Name] = struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}{m.Value, m.Unit}
		note := ""
		if m.Note != "" {
			note = "  (" + m.Note + ")"
		}
		fmt.Fprintf(w, "%-28s %14.6g %-10s n=%d%s\n", m.Name, m.Value, m.Unit, m.N, note)
	}
	metaLine, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "meta %s\n", metaLine)

	final, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]any `json:"metrics"`
	}{out.failed == 0, out.attempted, out.failed, metrics})
	if err != nil {
		return err
	}

	results := mkdirAll(filepath.Join(workdir, "results"))
	name := fmt.Sprintf("%s-trace%d", e.workload, boolInt(e.trace))
	full, err := json.MarshalIndent(struct {
		Meta     map[string]any `json:"meta"`
		Metrics  []metric       `json:"metrics"`
		Failures []string       `json:"failures,omitempty"`
	}{meta, decl, out.failures}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(results, name+".json"), append(full, '\n'), 0o644); err != nil {
		return err
	}
	if out.tr != nil {
		if err := out.tr.write(filepath.Join(results, e.workload+"-spans.ndjson")); err != nil {
			return err
		}
	}
	_, err = fmt.Fprintf(w, "%s\n", final)
	return err
}

// metadata records the host and the run's inputs.
func metadata(e *env) map[string]any {
	return map[string]any{
		"workload":   e.workload,
		"seed":       e.seed,
		"seconds":    e.seconds.Seconds(),
		"trace":      e.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"goarch":     runtime.GOARCH,
		"goos":       runtime.GOOS,
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
	}
}

// cpuModel reads the processor name the kernel reports, where it does.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func mkdirAll(dir string) string {
	_ = os.MkdirAll(dir, 0o755) // a failure surfaces at the first write
	return dir
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
