package main

import (
	"bufio"
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"

	"r3dla/internal/lab"
	"r3dla/internal/sweep"
)

// sweepBudget is the per-cell budget of the sweep workload. At 50k
// committed instructions building a system costs about 4 ms of a 70 ms
// cell, so the cycle loop dominates, and a 75-cell repetition is short
// enough for several repetitions per run.
const sweepBudget = 50_000

// setupRepeats is how many times a run repeats its set-up; setup_s is
// the median.
const setupRepeats = 7

// sweepPresets are the Fig. 9-a configurations.
var sweepPresets = []string{"baseline", "dla", "r3"}

// sweepSpec is the full-suite grid: every workload x the three presets,
// 75 cells. The seed only permutes the workload order, so every seed
// simulates the same cells.
func sweepSpec(seed int64) sweep.Spec {
	names := allWorkloads()
	rng := rand.New(rand.NewPCG(uint64(seed), 0x5157))
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	return sweep.Spec{Workloads: names, Budget: sweepBudget, Axes: sweep.Axes{Preset: sweepPresets}}
}

func allWorkloads() []string {
	var names []string
	for _, w := range lab.ListWorkloads() {
		names = append(names, w.Name)
	}
	return names
}

// runSweep: closed loop, one caller, Lab jobs = nproc. Set-up prepares
// all 25 workloads into a fresh prep cache. Each timed repetition runs
// the 75-cell grid through sweep.Run, journaled, on a new Lab (so every
// cell misses the run memo) whose workloads were loaded from that
// cache before the clock started.
func runSweep(ctx context.Context, e *env) (*outcome, error) {
	out := &outcome{meta: map[string]any{"budget": sweepBudget, "cells": 75}}
	spec := sweepSpec(e.seed)
	names := spec.Workloads
	tr := traceIf(e.trace)

	setupS, _, setupSamples, err := timeSetups(setupRepeats, func(i int) (*lab.Lab, error) {
		var str *tracer
		if i == setupRepeats-1 {
			str = tr
		}
		return prepareAll(ctx, e, str, filepath.Join(e.dir, fmt.Sprint("prep-", i)), sweepBudget, names)
	})
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	warm := filepath.Join(e.dir, fmt.Sprint("prep-", setupRepeats-1))

	journal := func(i int) string { return filepath.Join(e.dir, fmt.Sprintf("journal-%d.ndjson", i)) }
	reps, first, heap, err := repeat(e, tr, func(i int, rt *tracedRep) (*rep, error) {
		var opts []lab.ClientOption
		if rt != nil {
			opts = append(opts, lab.WithProgress(rt.events.observe))
		}
		l, err := prepareAll(ctx, e, nil, warm, sweepBudget, names, opts...)
		if err != nil {
			return nil, err
		}
		var runner sweep.Runner = l
		var rs openSpan
		rctx := ctx
		if rt != nil {
			rt.gate = newGatedRunner(l, rt.tr, e.jobs)
			runner = rt.gate
			rs = rt.tr.start("sweep.Run", 0, 0)
			rctx = withParent(ctx, rs.id)
		}
		t0 := startTimer()
		res, err := sweep.Run(rctx, runner, spec, sweep.Options{Journal: journal(i)})
		wall := time.Since(t0)
		if rt != nil {
			rt.root = rs.end()
		}
		if err != nil {
			return nil, err
		}
		r := &rep{wall: wall, cells: res.Cells, traced: rt != nil, runs: l.RunCount(), lab: l}
		for _, c := range res.Cells {
			r.work += float64(c.Result.Committed) / 1e6
		}
		return r, nil
	})
	if err != nil {
		out.check(false, "sweep %v", err)
		return out, nil
	}
	if err := checkReps(ctx, e, out, reps, sweepBudget); err != nil {
		return nil, err
	}

	untraced, traced := rates(reps)
	out.meta["setup_samples_s"] = setupSamples
	out.meta["sim_mips_samples"] = untraced
	if !e.trace {
		out.add(
			metric{Name: "setup_s", Value: setupS, Unit: "s", N: len(setupSamples), Note: "median cold prep of 25 workloads"},
			metric{Name: "heap_live_mib", Value: heap, Unit: "MiB", N: 1, Note: "after GC, end of timed phase"},
			metric{Name: "latency_ms", Value: 1e3 * median(walls(reps)), Unit: "ms", N: len(untraced), Note: "sweep.Run wall of the grid, median"},
			metric{Name: "rate_per_s", Value: 1e6 * median(untraced), Unit: "1/s", N: len(untraced), Note: "sweep.sim_mips: simulated MT instructions per host second, median"},
		)
		return out, nil
	}

	// Per-layer metrics, from the traced set-up, a direct probe of the
	// prep layers, and the first traced repetition.
	if err := probePrep(tr, out, names, sweepBudget/2, filepath.Join(e.dir, "probe-cache")); err != nil {
		return nil, err
	}
	out.add(prepMetrics(tr)...)
	out.add(coreMetrics(first.gate.coreRuns(first.events), waitTime(tr))...)
	out.add(expMetrics(len(first.gate.results), reps[1].runs)...)
	lines, err := countLines(journal(1))
	if err != nil {
		return nil, err
	}
	out.add(
		metric{Name: "sweep.self_s", Value: selfTime(first.root, childrenOf(tr.all(), first.root.ID)).Seconds(), Unit: "s", N: 1, Note: "sweep.Run span minus the union of its cells' spans"},
		metric{Name: "sweep.journal_lines", Value: float64(lines), Unit: "count", N: 1},
		overheadMetric(untraced, traced, true),
	)
	out.tr = tr
	return out, nil
}

// countLines counts the lines of a file (the sweep journal).
func countLines(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	n := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		n++
	}
	return n, sc.Err()
}
