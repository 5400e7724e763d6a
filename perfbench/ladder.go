package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"r3dla/internal/dse"
	"r3dla/internal/lab"
	"r3dla/internal/prepcache"
	"r3dla/internal/sweep"
	"r3dla/internal/tier"
)

// ladderBudget is the ladder's full (finalist) budget; calibration runs
// at tier.CalibBudgetFor of it. The seed picks the finalists, so their
// simulation time varies with it; a small budget keeps that share of
// the explore, and its spread over seeds, small.
const ladderBudget = 10_000

// ladderWorkloads are one workload per suite.
var ladderWorkloads = []string{"mcf", "bfs", "rotate", "cg"}

// ladderSpec is a halving exploration with the fidelity ladder over a
// 131,072-point space (4 workloads x 2 presets x 7 feature bits x 8 BOQ
// x 8 FQ x 2 VQ sizes). The seed drives the exploration and the
// Monte-Carlo tier.
func ladderSpec(seed int64) dse.Spec {
	tf := []bool{false, true}
	return dse.Spec{
		Space: sweep.Spec{
			Workloads: ladderWorkloads,
			Budget:    ladderBudget,
			Axes: sweep.Axes{
				Preset: []string{"dla", "r3"},
				T1:     tf, ValueReuse: tf, FetchBuffer: tf, Recycle: tf, BOP: tf, Stride: tf, PrefetchOnly: tf,
				BOQSize: []int{64, 128, 256, 512, 1024, 2048, 4096, 8192},
				FQSize:  []int{32, 64, 128, 256, 512, 1024, 2048, 4096},
				VQSize:  []int{16, 32},
			},
		},
		Strategy: dse.StrategyHalving,
		Fidelity: dse.FidelityLadder,
		Seed:     seed,
		Samples:  64,
		Eta:      4,
	}
}

// runLadder: closed loop, one caller. Set-up prepares the four workloads
// and calibrates the estimator tiers into a fresh prep cache. Each timed
// repetition explores on a new Lab and calibrator that loaded both from
// that cache before the clock started, so the finalists are memo misses
// and the calibration is not repeated.
func runLadder(ctx context.Context, e *env) (*outcome, error) {
	spec := ladderSpec(e.seed)
	calBudget := tier.CalibBudgetFor(ladderBudget)
	out := &outcome{meta: map[string]any{"budget": ladderBudget, "calib_budget": calBudget}}
	tr := traceIf(e.trace)

	setupS, _, setupSamples, err := timeSetups(setupRepeats, func(i int) (*tier.Calibrator, error) {
		var str *tracer
		if i == setupRepeats-1 {
			str = tr
		}
		return calibrate(ctx, e, str, filepath.Join(e.dir, fmt.Sprint("prep-", i)), nil)
	})
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	warm := filepath.Join(e.dir, fmt.Sprint("prep-", setupRepeats-1))

	var size int64
	reps, first, heap, err := repeat(e, tr, func(i int, rt *tracedRep) (*rep, error) {
		var opts []lab.ClientOption
		if rt != nil {
			opts = append(opts, lab.WithProgress(rt.events.observe))
		}
		cal, err := calibrate(ctx, e, nil, warm, opts)
		if err != nil {
			return nil, err
		}
		l := cal.Lab()
		var runner sweep.Runner = l
		tiers := &dse.Tiers{Analytic: tier.NewAnalyticRunner(cal), MC: tier.NewMonteCarloRunner(cal, uint64(e.seed))}
		var rs openSpan
		rctx := ctx
		if rt != nil {
			rt.gate = newGatedRunner(l, rt.tr, e.jobs)
			runner = rt.gate
			tiers.Analytic = tracedRunner{"tier.analytic", tiers.Analytic, rt.tr}
			tiers.MC = tracedRunner{"tier.mc", tiers.MC, rt.tr}
			rs = rt.tr.start("dse.Explore", 0, 0)
			rctx = withParent(ctx, rs.id)
		}
		t0 := startTimer()
		res, err := dse.Explore(rctx, runner, spec, dse.Options{Tiers: tiers})
		wall := time.Since(t0)
		if rt != nil {
			rt.root = rs.end()
		}
		if err != nil {
			return nil, err
		}
		size = res.SpaceSize
		r := &rep{wall: wall, work: float64(res.SpaceSize), traced: rt != nil, runs: l.RunCount(), lab: l}
		for _, c := range res.Evaluated {
			if c.Tier == sweep.TierCycle {
				r.cells = append(r.cells, c)
			}
		}
		return r, nil
	})
	if err != nil {
		out.check(false, "explore %v", err)
		return out, nil
	}
	if err := checkReps(ctx, e, out, reps, ladderBudget); err != nil {
		return nil, err
	}

	untraced, traced := rates(reps)
	out.meta["space_size"] = size
	out.meta["finalists"] = len(reps[0].cells)
	out.meta["setup_samples_s"] = setupSamples
	out.meta["points_per_s_samples"] = untraced
	if !e.trace {
		out.add(
			metric{Name: "setup_s", Value: setupS, Unit: "s", N: len(setupSamples), Note: "median cold prep + tier calibration"},
			metric{Name: "heap_live_mib", Value: heap, Unit: "MiB", N: 1, Note: "after GC, end of timed phase"},
			metric{Name: "latency_ms", Value: 1e3 * median(walls(reps)), Unit: "ms", N: len(untraced), Note: "dse.Explore wall, median"},
			metric{Name: "rate_per_s", Value: median(untraced), Unit: "1/s", N: len(untraced), Note: "ladder.points_per_s: space points per dse.Explore second, median"},
		)
		return out, nil
	}

	if err := probePrep(tr, out, ladderWorkloads, ladderBudget/2, filepath.Join(e.dir, "probe-cache")); err != nil {
		return nil, err
	}
	out.add(prepMetrics(tr)...)
	out.add(coreMetrics(first.gate.coreRuns(first.events), waitTime(tr))...)
	out.add(expMetrics(len(first.gate.results), reps[1].runs)...)
	cal := durations(tr.named("tier.Calibrator.Get"))
	analytic := durations(tr.named("tier.analytic"))
	mc := durations(tr.named("tier.mc"))
	out.add(
		metric{Name: "tier.calibrate_s", Value: sum(cal), Unit: "s", N: len(cal), Note: "sum of cold Calibrator.Get"},
		metric{Name: "tier.analytic_cells", Value: float64(len(analytic)), Unit: "count", N: len(analytic)},
		metric{Name: "tier.analytic_us", Value: 1e6 * median(analytic), Unit: "us", N: len(analytic), Note: "median AnalyticRunner.Run"},
		metric{Name: "tier.mc_cells", Value: float64(len(mc)), Unit: "count", N: len(mc)},
		metric{Name: "tier.mc_us", Value: 1e6 * median(mc), Unit: "us", N: len(mc), Note: "median MonteCarloRunner.Run"},
		metric{Name: "tier.cycle_cells", Value: float64(len(first.gate.results)), Unit: "count", N: len(first.gate.results)},
		metric{Name: "dse.self_s", Value: selfTime(first.root, childrenOf(tr.all(), first.root.ID)).Seconds(), Unit: "s", N: 1, Note: "dse.Explore span minus the union of its runner spans"},
		overheadMetric(untraced, traced, true),
	)
	out.tr = tr
	return out, nil
}

// calibrate builds a Lab over the prep cache in dir, prepares the ladder
// workloads and captures each one's tier calibration, on jobs workers.
// On an empty dir this is the cold set-up; on a warm one, both load
// from the cache.
func calibrate(ctx context.Context, e *env, tr *tracer, dir string, opts []lab.ClientOption) (*tier.Calibrator, error) {
	l, err := prepareAll(ctx, e, tr, dir, ladderBudget, ladderWorkloads, opts...)
	if err != nil {
		return nil, err
	}
	pc, err := prepcache.New(dir)
	if err != nil {
		return nil, err
	}
	cal := tier.NewCalibrator(l, tier.CalibBudgetFor(ladderBudget), pc)
	errs := make([]error, len(ladderWorkloads))
	forEach(e.jobs, len(ladderWorkloads), func(i int) {
		s := tr.start("tier.Calibrator.Get", 0, 0)
		_, errs[i] = cal.Get(ctx, ladderWorkloads[i])
		s.end()
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return cal, nil
}
