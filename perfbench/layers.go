package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"r3dla/internal/core"
	"r3dla/internal/exp"
	"r3dla/internal/lab"
	"r3dla/internal/prepcache"
	"r3dla/internal/sweep"
	"r3dla/internal/workloads"
)

// Golden grid: the committed RunResult goldens pin the simulator's
// output byte for byte at this budget.
const goldenBudget = 4000

var (
	goldenWorkloads = []string{"mcf", "libq", "bfs", "rotate"}
	goldenPresets   = []string{"baseline", "dla", "r3"}
)

// checkGoldens reproduces every committed run golden through
// lab.Lab.Run, one checked operation each.
func checkGoldens(ctx context.Context, e *env, out *outcome) error {
	l, err := lab.New(lab.WithBudget(goldenBudget), lab.WithJobs(e.jobs))
	if err != nil {
		return err
	}
	var reqs []lab.RunRequest
	for _, w := range goldenWorkloads {
		for _, p := range goldenPresets {
			reqs = append(reqs, lab.RunRequest{Workload: w, Config: lab.ConfigSpec{Preset: p}, Budget: goldenBudget})
		}
	}
	got := make([][]byte, len(reqs))
	errs := make([]error, len(reqs))
	forEach(e.jobs, len(reqs), func(i int) {
		res, err := l.Run(ctx, reqs[i])
		if err == nil {
			got[i], err = resultJSON(res)
		}
		errs[i] = err
	})
	for i, r := range reqs {
		path := filepath.Join(e.root, "internal", "lab", "testdata", "runs", r.Workload+"_"+r.Config.Preset+".json")
		want, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		out.check(errs[i] == nil && bytes.Equal(got[i], want), "golden %s differs (err %v)", path, errs[i])
	}
	return nil
}

// resultJSON renders a RunResult exactly as the service and the goldens
// do.
func resultJSON(r *lab.RunResult) ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// forEach runs f(0..n-1) on at most workers goroutines and waits.
func forEach(workers, n int, f func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				f(i)
			}
		}()
	}
	wg.Wait()
}

// heapLiveMiB collects garbage and reports the live heap.
func heapLiveMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// ------------------------------------------------------------------ prep

// prepareAll builds a Lab and prepares every named workload on jobs
// workers, one lab.Lab.Prepare span each. A non-empty cacheDir attaches
// the prep cache (empty directory: cold, stores; warm: loads).
func prepareAll(ctx context.Context, e *env, tr *tracer, cacheDir string, budget uint64, names []string, opts ...lab.ClientOption) (*lab.Lab, error) {
	opts = append([]lab.ClientOption{lab.WithBudget(budget), lab.WithJobs(e.jobs)}, opts...)
	if cacheDir != "" {
		opts = append(opts, lab.WithPrepCache(cacheDir))
	}
	l, err := lab.New(opts...)
	if err != nil {
		return nil, err
	}
	errs := make([]error, len(names))
	forEach(e.jobs, len(names), func(i int) {
		s := tr.start("lab.Prepare", 0, 0)
		_, errs[i] = l.Prepare(ctx, names[i])
		s.end()
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return l, nil
}

// timeSetups runs setup n times and returns the median wall time, the
// last setup's value, and every sample.
func timeSetups[T any](n int, setup func(i int) (T, error)) (med float64, last T, samples []float64, err error) {
	for i := 0; i < n; i++ {
		t0 := time.Now()
		v, err := setup(i)
		if err != nil {
			return 0, last, nil, err
		}
		samples = append(samples, time.Since(t0).Seconds())
		last = v
	}
	return median(samples), last, samples, nil
}

// probePrep times the preparation layers directly on every named
// workload, with the inputs lab.Lab.Prepare uses: core.Collect (the
// training-run profile) and core.Generate (skeleton generation), then a
// prepcache.Cache Store and Load of the result in an empty cache in
// dir; each Load must hit. (That loaded entries simulate like fresh
// ones is checked by the sweep and ladder repetitions, which run on
// them, against a reference Lab that prepares from scratch.)
func probePrep(tr *tracer, out *outcome, names []string, trainBudget uint64, dir string) error {
	pc, err := prepcache.New(dir)
	if err != nil {
		return err
	}
	for _, name := range names {
		w := workloads.ByName(name)
		train, trainSetup := w.Build(exp.TrainSeed)
		eval, _ := w.Build(exp.EvalSeed)

		s := tr.start("core.Collect", 0, 0)
		prof := core.Collect(train, trainSetup, trainBudget)
		s.end()
		s = tr.start("core.Generate", 0, 0)
		set := core.Generate(eval, prof)
		s.end()
		key := fmt.Sprintf("%s@%d", name, trainBudget)
		s = tr.start("prepcache.Store", 0, 0)
		err := pc.Store(key, train, eval, prof, set)
		s.end()
		s = tr.start("prepcache.Load", 0, 0)
		_, _, ok := pc.Load(key, train, eval)
		s.end()
		out.check(err == nil && ok, "prepcache round trip of %s (store err %v, loaded %v)", key, err, ok)
	}
	return nil
}

// prepMetrics derives the prep and prepcache layers' metrics from a
// traced setup and a probePrep pass.
func prepMetrics(tr *tracer) []metric {
	prep := durations(tr.named("lab.Prepare"))
	collect := durations(tr.named("core.Collect"))
	generate := durations(tr.named("core.Generate"))
	store := durations(tr.named("prepcache.Store"))
	load := durations(tr.named("prepcache.Load"))
	return []metric{
		{Name: "prep.s", Value: sum(prep), Unit: "s", N: len(prep), Note: "sum of lab.Lab.Prepare spans, cold"},
		{Name: "prep.profile_s", Value: sum(collect), Unit: "s", N: len(collect), Note: "sum of core.Collect"},
		{Name: "prep.skeleton_s", Value: sum(generate), Unit: "s", N: len(generate), Note: "sum of core.Generate"},
		{Name: "prepcache.store_ms", Value: 1e3 * median(store), Unit: "ms", N: len(store), Note: "median"},
		{Name: "prepcache.load_ms", Value: 1e3 * median(load), Unit: "ms", N: len(load), Note: "median"},
	}
}

// durations returns the spans' durations in seconds.
func durations(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = s.dur().Seconds()
	}
	return out
}

// ------------------------------------------------------------------ core

// coreRun is one cycle-accurate simulation: its exact simulated counts
// and the busy time lab.WithProgress reported for its "run" event.
type coreRun struct {
	workload, preset string
	insts, cycles    uint64
	busy             time.Duration
}

// runEvents collects the busy time of each "run" event a Lab reports.
type runEvents struct {
	mu   sync.Mutex
	busy map[string]time.Duration // workload|config key
}

func newRunEvents() *runEvents { return &runEvents{busy: make(map[string]time.Duration)} }

func (r *runEvents) observe(ev lab.Event) {
	if ev.Stage != "run" {
		return
	}
	r.mu.Lock()
	r.busy[ev.Workload+"|"+ev.Key] += ev.Elapsed
	r.mu.Unlock()
}

// join pairs each simulated result with its event's busy time. A result
// with no event was served from the Lab's memo and simulated nothing.
func (r *runEvents) join(preset string, res *lab.RunResult) (coreRun, bool) {
	r.mu.Lock()
	busy, ok := r.busy[res.Workload+"|"+res.Config]
	delete(r.busy, res.Workload+"|"+res.Config)
	r.mu.Unlock()
	if preset == "" {
		preset = lab.Baseline.Name()
	}
	return coreRun{workload: res.Workload, preset: preset, insts: res.Committed, cycles: res.Cycles, busy: busy}, ok
}

// coreSum accumulates simulations.
type coreSum struct {
	n             int
	insts, cycles uint64
	busy          time.Duration
}

func (s *coreSum) add(r coreRun) {
	s.n++
	s.insts += r.insts
	s.cycles += r.cycles
	s.busy += r.busy
}

// coreMetrics derives the core layer's metrics. wait is the time cells
// spent queued for a worker-pool slot; a negative wait means the
// workload cannot observe it and the metric is left out. The per-preset
// and per-suite rates cover the presets and suites that ran.
func coreMetrics(runs []coreRun, wait time.Duration) []metric {
	var all coreSum
	perPreset, perSuite := map[string]*coreSum{}, map[string]*coreSum{}
	addTo := func(m map[string]*coreSum, k string, r coreRun) {
		if m[k] == nil {
			m[k] = &coreSum{}
		}
		m[k].add(r)
	}
	for _, r := range runs {
		all.add(r)
		addTo(perPreset, r.preset, r)
		addTo(perSuite, workloads.ByName(r.workload).Suite, r)
	}
	ms := []metric{
		{Name: "core.cells", Value: float64(all.n), Unit: "count", N: all.n},
		{Name: "core.sim_insts", Value: float64(all.insts), Unit: "count", N: all.n, Note: "committed MT instructions"},
		{Name: "core.sim_cycles", Value: float64(all.cycles), Unit: "count", N: all.n, Note: "simulated MT cycles"},
		{Name: "core.busy_s", Value: all.busy.Seconds(), Unit: "s", N: all.n, Note: "sum of run-event Elapsed"},
	}
	if wait >= 0 {
		ms = append(ms, metric{Name: "core.wait_s", Value: wait.Seconds(), Unit: "s", N: all.n, Note: "sum of waits for a pool slot"})
	}
	for _, p := range goldenPresets {
		if s := perPreset[p]; s != nil && s.cycles > 0 {
			ms = append(ms, metric{Name: "core.ns_per_cycle." + p, Value: float64(s.busy.Nanoseconds()) / float64(s.cycles), Unit: "ns", N: s.n, Note: "host ns per simulated cycle"})
		}
	}
	for _, suite := range workloads.Suites {
		if s := perSuite[suite]; s != nil && s.busy > 0 {
			ms = append(ms, metric{Name: "core.mips." + suite, Value: float64(s.insts) / s.busy.Seconds() / 1e6, Unit: "Minst/s", N: s.n, Note: "simulated MT instructions per busy second"})
		}
	}
	return ms
}

// expMetrics reports the run memo's work: calls into lab.Lab.Run
// against the simulations RunCount says actually executed.
func expMetrics(calls, runs int) []metric {
	ratio := 0.0
	if calls > 0 {
		ratio = float64(calls-runs) / float64(calls)
	}
	return []metric{
		{Name: "exp.run_calls", Value: float64(calls), Unit: "count", N: calls},
		{Name: "exp.runs", Value: float64(runs), Unit: "count", N: calls, Note: "lab.Lab.RunCount"},
		{Name: "exp.memo_hit_ratio", Value: ratio, Unit: "ratio", N: calls, Note: "(calls - runs) / calls"},
	}
}

// ------------------------------------------------------- timed phase

// rep is one timed repetition of a closed-loop workload.
type rep struct {
	wall   time.Duration
	work   float64            // the headline rate's numerator
	cells  []sweep.CellResult // the cycle-accurate answers it produced (first repetition only)
	traced bool
	runs   int      // simulations its Lab executed
	lab    *lab.Lab // kept for the heap reading, then dropped

	answered int      // cycle-accurate answers it produced
	differ   []string // keys of answers that differ from the first repetition's
}

// repeat runs the timed phase of a closed-loop workload: repetitions
// until seconds of them are measured. Each repetition collects garbage
// (startTimer) before its clock starts, so none pays for the last
// one's. In trace mode they alternate untraced and traced, at least
// one of each; rt is nil for an untraced
// repetition, and the first traced one (index 1) keeps its spans on tr.
// Each later repetition's answers are compared with the first's as it
// ends, outside its timed wall, and dropped; only the first's answers
// and the last repetition's Lab stay referenced, so heapMiB, read after
// the last one, does not grow with the number of repetitions. A failed
// repetition ends the phase with the error.
func repeat(e *env, tr *tracer, run func(i int, rt *tracedRep) (*rep, error)) (reps []*rep, first *tracedRep, heapMiB float64, err error) {
	var measured time.Duration
	var firstJSON map[string][]byte
	for i := 0; measured < e.seconds || (e.trace && len(reps) < 2); i++ {
		var rt *tracedRep
		if e.trace && i%2 == 1 {
			rt = &tracedRep{tr: tr, events: newRunEvents()}
			if first == nil {
				first = rt
			} else {
				rt.tr = newTracer() // same tracing work; the spans are not kept
			}
		}
		if i > 0 {
			reps[i-1].lab = nil // only the last repetition's Lab stays live
		}
		r, err := run(i, rt)
		if err != nil {
			return reps, first, 0, fmt.Errorf("repetition %d: %w", i, err)
		}
		r.answered = len(r.cells)
		if i == 0 {
			if firstJSON, err = cellJSON(r.cells); err != nil {
				return reps, first, 0, err
			}
		} else {
			for _, c := range r.cells {
				got, err := resultJSON(c.Result)
				if err != nil || !bytes.Equal(got, firstJSON[c.Key]) || c.Result.Deadlocked {
					r.differ = append(r.differ, c.Key)
				}
			}
			r.cells = nil
		}
		reps = append(reps, r)
		measured += r.wall
	}
	heapMiB = heapLiveMiB()
	runtime.KeepAlive(reps[len(reps)-1].lab)
	reps[len(reps)-1].lab = nil
	return reps, first, heapMiB, nil
}

// startTimer collects garbage and starts a repetition's clock.
func startTimer() time.Time {
	runtime.GC()
	return time.Now()
}

// cellJSON renders each cell's answer as the service does, by cell key.
func cellJSON(cells []sweep.CellResult) (map[string][]byte, error) {
	out := make(map[string][]byte, len(cells))
	for _, c := range cells {
		b, err := resultJSON(c.Result)
		if err != nil {
			return nil, err
		}
		out[c.Key] = b
	}
	return out, nil
}

// rates splits the repetitions' work per second into untraced and
// traced samples.
func rates(reps []*rep) (untraced, traced []float64) {
	for _, r := range reps {
		v := r.work / r.wall.Seconds()
		if r.traced {
			traced = append(traced, v)
		} else {
			untraced = append(untraced, v)
		}
	}
	return untraced, traced
}

// walls returns the untraced repetitions' wall times in seconds.
func walls(reps []*rep) []float64 {
	var out []float64
	for _, r := range reps {
		if !r.traced {
			out = append(out, r.wall.Seconds())
		}
	}
	return out
}

// checkReps counts every repetition's cycle-accurate answers, outside
// the timed phase: the first repetition's against a fresh Lab, and every
// later one's as repeat compared them with the first's, so each must
// also answer the same cells.
func checkReps(ctx context.Context, e *env, out *outcome, reps []*rep, budget uint64) error {
	first := reps[0].cells
	reqs := make([]lab.RunRequest, len(first))
	for i, c := range first {
		reqs[i] = lab.RunRequest{Workload: c.Workload, Config: c.Config, Budget: budget}
	}
	want, _, err := verifyRuns(ctx, e, budget, reqs, nil)
	if err != nil {
		return err
	}
	for ri, r := range reps {
		out.check(len(first) > 0 && r.answered == len(first),
			"repetition %d answered %d cells, the first %d", ri, r.answered, len(first))
	}
	for i, c := range first {
		got, err := resultJSON(c.Result)
		out.check(err == nil && bytes.Equal(got, want[i]) && !c.Result.Deadlocked,
			"repetition 0 cell %s differs from lab.Lab.Run (deadlocked %v)", c.Key, c.Result.Deadlocked)
	}
	for ri, r := range reps[1:] {
		for _, key := range r.differ {
			out.check(false, "repetition %d cell %s differs from the first repetition's", ri+1, key)
		}
		for n := len(r.differ); n < r.answered; n++ {
			out.check(true, "")
		}
	}
	return nil
}

// waitTime sums the core.wait spans.
func waitTime(tr *tracer) time.Duration {
	var wait time.Duration
	for _, s := range tr.named("core.wait") {
		wait += s.dur()
	}
	return wait
}

// ------------------------------------------------------- traced runners

// tracedRep is the tracing state of one traced repetition. Every traced
// repetition does the same tracing work, so they all measure the
// overhead; only the first one's spans are kept for the layers.
type tracedRep struct {
	tr     *tracer
	events *runEvents
	gate   *gatedRunner
	root   span
}

// gatedRunner is the traced cycle-accurate runner: it admits at most
// jobs cells into lab.Lab.Run at once, so the Lab's own pool never
// queues and each run event's Elapsed is pure simulation. The time a
// cell waits at the gate is the core layer's wait, recorded as a
// "core.wait" span beside the "lab.Run" span.
type gatedRunner struct {
	l    *lab.Lab
	tr   *tracer
	gate chan struct{}

	mu      sync.Mutex
	results []gatedResult
}

type gatedResult struct {
	preset string
	res    *lab.RunResult
}

func newGatedRunner(l *lab.Lab, tr *tracer, jobs int) *gatedRunner {
	return &gatedRunner{l: l, tr: tr, gate: make(chan struct{}, jobs)}
}

func (g *gatedRunner) Run(ctx context.Context, req lab.RunRequest) (*lab.RunResult, error) {
	parent := parentOf(ctx)
	w := g.tr.start("core.wait", parent, 0)
	select {
	case g.gate <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	w.end()
	s := g.tr.start("lab.Run", parent, 0)
	res, err := g.l.Run(ctx, req)
	s.end()
	<-g.gate
	if err == nil {
		g.mu.Lock()
		g.results = append(g.results, gatedResult{req.Config.Preset, res})
		g.mu.Unlock()
	}
	return res, err
}

// coreRuns joins the gate's results with the Lab's run events.
func (g *gatedRunner) coreRuns(ev *runEvents) []coreRun {
	var out []coreRun
	for _, r := range g.results {
		if c, ok := ev.join(r.preset, r.res); ok {
			out = append(out, c)
		}
	}
	return out
}

// tracedRunner records one span per call into a sweep.Runner.
type tracedRunner struct {
	name string
	r    sweep.Runner
	tr   *tracer
}

func (t tracedRunner) Run(ctx context.Context, req lab.RunRequest) (*lab.RunResult, error) {
	s := t.tr.start(t.name, parentOf(ctx), 0)
	res, err := t.r.Run(ctx, req)
	s.end()
	return res, err
}

// verifyRuns re-runs every request through a fresh in-process Lab, which
// prepares its workloads from scratch, and returns each answer's JSON,
// in request order. ev, when non-nil,
// observes the reference Lab's run events; runs execute on jobs workers
// so the events' Elapsed is pure simulation.
func verifyRuns(ctx context.Context, e *env, budget uint64, reqs []lab.RunRequest, ev *runEvents) ([][]byte, []*lab.RunResult, error) {
	opts := []lab.ClientOption{lab.WithBudget(budget), lab.WithJobs(e.jobs)}
	if ev != nil {
		opts = append(opts, lab.WithProgress(ev.observe))
	}
	l, err := lab.New(opts...)
	if err != nil {
		return nil, nil, err
	}
	bodies := make([][]byte, len(reqs))
	results := make([]*lab.RunResult, len(reqs))
	errs := make([]error, len(reqs))
	forEach(e.jobs, len(reqs), func(i int) {
		res, err := l.Run(ctx, reqs[i])
		if err == nil {
			results[i] = res
			bodies[i], err = resultJSON(res)
		}
		errs[i] = err
	})
	for i, err := range errs {
		if err != nil {
			return nil, nil, fmt.Errorf("reference run %s: %w", reqs[i].Workload, err)
		}
	}
	return bodies, results, nil
}

// overheadMetric compares a workload's headline number in the traced
// repetitions against the untraced ones (medians of each), as the
// percentage by which tracing made it worse.
func overheadMetric(untraced, traced []float64, higherIsBetter bool) metric {
	u, t := median(untraced), median(traced)
	pct := 100 * (t - u) / u
	if higherIsBetter {
		pct = -pct
	}
	return metric{Name: "trace.overhead_pct", Value: pct, Unit: "%", N: len(untraced) + len(traced), Note: "traced vs untraced headline metric"}
}
