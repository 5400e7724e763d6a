package main

import "fmt"

// metricSpec is one metric BENCHMARK.json declares.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics every workload reports with -trace 0. Each
// workload gives the generic names its own meaning (README.md, "End-to-
// end metrics"): latency_ms is how long its user waits for one
// operation, rate_per_s how much work it completes per host second.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"heap_live_mib", "MiB"},
	{"latency_ms", "ms"},
	{"rate_per_s", "1/s"},
}

// perLayer are the metrics every workload reports with -trace 1. A
// metric the workload does not measure (its layer is bypassed, or not
// observable there) reads 0 with 0 samples.
var perLayer = []metricSpec{
	{"prep.s", "s"},
	{"prep.profile_s", "s"},
	{"prep.skeleton_s", "s"},
	{"prepcache.store_ms", "ms"},
	{"prepcache.load_ms", "ms"},
	{"core.cells", "count"},
	{"core.sim_insts", "count"},
	{"core.sim_cycles", "count"},
	{"core.busy_s", "s"},
	{"core.wait_s", "s"},
	{"core.ns_per_cycle.baseline", "ns"},
	{"core.ns_per_cycle.dla", "ns"},
	{"core.ns_per_cycle.r3", "ns"},
	{"core.mips.spec", "Minst/s"},
	{"core.mips.crono", "Minst/s"},
	{"core.mips.star", "Minst/s"},
	{"core.mips.npb", "Minst/s"},
	{"exp.run_calls", "count"},
	{"exp.runs", "count"},
	{"exp.memo_hit_ratio", "ratio"},
	{"sweep.self_s", "s"},
	{"sweep.journal_lines", "count"},
	{"serve.p99_ms", "ms"},
	{"server.requests", "count"},
	{"server.failed", "count"},
	{"server.hit_ms.p50", "ms"},
	{"server.cold_ms.p50", "ms"},
	{"server.cold_ms.p99", "ms"},
	{"server.interactive_ms.p99", "ms"},
	{"server.batch_ms.p99", "ms"},
	{"server.coalesced", "count"},
	{"server.shed.interactive", "count"},
	{"server.shed.batch", "count"},
	{"resultstore.hits", "count"},
	{"resultstore.misses", "count"},
	{"resultstore.puts", "count"},
	{"resultstore.evictions", "count"},
	{"resultstore.get_us", "us"},
	{"resultstore.put_us", "us"},
	{"tier.calibrate_s", "s"},
	{"tier.analytic_cells", "count"},
	{"tier.analytic_us", "us"},
	{"tier.mc_cells", "count"},
	{"tier.mc_us", "us"},
	{"tier.cycle_cells", "count"},
	{"dse.self_s", "s"},
	{"trace.overhead_pct", "%"},
}

// declared matches a run's metrics to the ones BENCHMARK.json declares
// for its mode, in declared order. Every end-to-end metric must be
// measured; a per-layer metric the workload does not measure (its layer
// is bypassed) is added as 0 with 0 samples. A measured metric with the
// wrong unit is an error.
func declared(ms []metric, trace bool) ([]metric, error) {
	specs := endToEnd
	if trace {
		specs = perLayer
	}
	byName := make(map[string]metric, len(ms))
	for _, m := range ms {
		byName[m.Name] = m
	}
	out := make([]metric, 0, len(specs))
	for _, s := range specs {
		m, ok := byName[s.name]
		switch {
		case !ok && trace:
			m = metric{Name: s.name, Unit: s.unit, Note: "not measured on this workload"}
		case !ok:
			return nil, fmt.Errorf("end-to-end metric %s was not measured", s.name)
		case m.Unit != s.unit:
			return nil, fmt.Errorf("metric %s measured in %s, declared in %s", s.name, m.Unit, s.unit)
		}
		out = append(out, m)
	}
	return out, nil
}
