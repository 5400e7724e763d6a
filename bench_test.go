// Benchmarks regenerating every table and figure of the paper at reduced
// budgets (CI-friendly), plus ablation benches for the design choices
// DESIGN.md calls out and microbenchmarks of the simulator itself.
//
// The full-budget regeneration is `go run ./cmd/r3dla -exp all`.
package r3dla_test

import (
	"context"
	"runtime"
	"testing"

	"r3dla"
	"r3dla/internal/bench"
	"r3dla/internal/core"
	"r3dla/internal/emu"
	"r3dla/internal/exp"
)

const benchBudget = 6_000 // per-simulation budget inside table/figure benches

func runExp(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		ctx := exp.NewContext(benchBudget)
		e, ok := exp.ByID(id)
		if !ok {
			b.Fatalf("unknown experiment %s", id)
		}
		if out := e.Run(ctx).String(); len(out) == 0 {
			b.Fatal("empty experiment output")
		}
	}
}

// benchAll runs the full registry (the `-exp all` path) through the
// engine with the given worker-pool width; the Serial/Parallel pair
// measures the engine's wall-time win.
func benchAll(b *testing.B, jobs int) {
	b.Helper()
	if jobs != 1 && runtime.GOMAXPROCS(0) == 1 {
		b.Log("GOMAXPROCS=1: the parallel engine degenerates to serial on this machine")
	}
	ids := exp.IDs()
	for i := 0; i < b.N; i++ {
		ctx := exp.NewContext(benchBudget)
		ctx.Jobs = jobs
		results, err := exp.Run(context.Background(), ctx, ids, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if r.Err != nil {
				b.Fatalf("%s: %v", r.ID, r.Err)
			}
		}
	}
}

// BenchmarkExpAllSerial is `r3dla -exp all -jobs 1` at a CI budget.
func BenchmarkExpAllSerial(b *testing.B) { benchAll(b, 1) }

// BenchmarkExpAllParallel is `r3dla -exp all` on the full worker pool;
// compare against BenchmarkExpAllSerial for the engine speedup.
func BenchmarkExpAllParallel(b *testing.B) { benchAll(b, 0) }

// One bench per paper artifact.
func BenchmarkTable1(b *testing.B) { runExp(b, "tab1") }
func BenchmarkFig1(b *testing.B)   { runExp(b, "fig1") }
func BenchmarkFig5(b *testing.B)   { runExp(b, "fig5") }
func BenchmarkFig9a(b *testing.B)  { runExp(b, "fig9a") }
func BenchmarkFig9b(b *testing.B)  { runExp(b, "fig9b") }
func BenchmarkTable2(b *testing.B) { runExp(b, "tab2") }
func BenchmarkFig10(b *testing.B)  { runExp(b, "fig10") }
func BenchmarkFig11(b *testing.B)  { runExp(b, "fig11") }
func BenchmarkTable3(b *testing.B) { runExp(b, "tab3") }
func BenchmarkFig12(b *testing.B)  { runExp(b, "fig12") }
func BenchmarkFig13a(b *testing.B) { runExp(b, "fig13a") }
func BenchmarkFig13b(b *testing.B) { runExp(b, "fig13b") }
func BenchmarkFig13c(b *testing.B) { runExp(b, "fig13c") }
func BenchmarkFig14(b *testing.B)  { runExp(b, "fig14") }
func BenchmarkFig15(b *testing.B)  { runExp(b, "fig15") }

// ---------------------------------------------------------------------
// Ablations: design-space sweeps around the paper's chosen points.

// prepMcf memoizes one prepared workload for the ablation benches.
var ablation *struct {
	prog  *r3dla.Program
	setup func(*r3dla.Memory)
	prof  *r3dla.TrainingProfile
	set   *r3dla.SkeletonSet
}

func prepAblation(b *testing.B) {
	b.Helper()
	if ablation != nil {
		return
	}
	w := r3dla.Workload("mcf")
	tp, ts := w.Build(1)
	prof := r3dla.Profile(tp, ts, 30_000)
	ep, es := w.Build(2)
	ablation = &struct {
		prog  *r3dla.Program
		setup func(*r3dla.Memory)
		prof  *r3dla.TrainingProfile
		set   *r3dla.SkeletonSet
	}{ep, es, prof, r3dla.Skeletons(ep, prof)}
}

func runDLA(b *testing.B, mut func(*core.Options)) float64 {
	b.Helper()
	prepAblation(b)
	opt := core.DLAOptions()
	if mut != nil {
		mut(&opt)
	}
	sys := r3dla.NewSystem(ablation.prog, ablation.setup, ablation.set, ablation.prof, opt)
	r := sys.Run(30_000)
	return r.IPC()
}

// BenchmarkAblationBOQSize sweeps the look-ahead depth bound.
func BenchmarkAblationBOQSize(b *testing.B) {
	for _, size := range []int{32, 128, 512, 2048} {
		size := size
		b.Run(itobench(size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ipc := runDLA(b, func(o *core.Options) { o.BOQSize = size })
				b.ReportMetric(ipc, "ipc")
			}
		})
	}
}

// BenchmarkAblationRebootCost sweeps the reboot penalty (paper: 64 -> 200
// costs < 2%).
func BenchmarkAblationRebootCost(b *testing.B) {
	for _, cost := range []uint64{16, 64, 200, 1000} {
		cost := cost
		b.Run(itobench(int(cost)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ipc := runDLA(b, func(o *core.Options) { o.RebootCost = cost })
				b.ReportMetric(ipc, "ipc")
			}
		})
	}
}

// BenchmarkAblationFQSize sweeps the footnote queue capacity.
func BenchmarkAblationFQSize(b *testing.B) {
	for _, size := range []int{16, 64, 128, 512} {
		size := size
		b.Run(itobench(size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ipc := runDLA(b, func(o *core.Options) { o.FQSize = size })
				b.ReportMetric(ipc, "ipc")
			}
		})
	}
}

// BenchmarkAblationSkeletonVersion runs each fixed skeleton version.
func BenchmarkAblationSkeletonVersion(b *testing.B) {
	for v := 0; v < 6; v++ {
		v := v
		b.Run(itobench(v), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ipc := runDLA(b, func(o *core.Options) { o.FixedVersion, o.HasFixedVersion = v, true })
				b.ReportMetric(ipc, "ipc")
			}
		})
	}
}

func itobench(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// ---------------------------------------------------------------------
// Fleet: distributed sweep throughput. These run bench.FleetSuite, the
// same defs `r3dla bench -suite fleet` records in BENCH_fleet.json.

// fleetSweep runs the fleet suite's def with the given name.
func fleetSweep(b *testing.B, name string) {
	for _, d := range bench.FleetSuite() {
		if d.Name == name {
			d.F(b)
			return
		}
	}
	b.Fatalf("no fleet bench %q", name)
}

// BenchmarkFleetSweepLocal is the single-process reference.
func BenchmarkFleetSweepLocal(b *testing.B) { fleetSweep(b, "FleetSweep/local") }

// BenchmarkFleetSweep1Backend adds the wire: same grid through one
// r3dlad; the delta over Local is pure protocol overhead.
func BenchmarkFleetSweep1Backend(b *testing.B) { fleetSweep(b, "FleetSweep/1backend") }

// BenchmarkFleetSweep3Backends shards the grid across three r3dlad
// instances; compare against 1Backend for the scale-out win (in-process
// servers share this machine's cores, so CI numbers understate a real
// cluster).
func BenchmarkFleetSweep3Backends(b *testing.B) { fleetSweep(b, "FleetSweep/3backends") }

// ---------------------------------------------------------------------
// Microbenchmarks of the simulator substrate.

// BenchmarkEmulator measures raw functional-emulation throughput.
func BenchmarkEmulator(b *testing.B) {
	w := r3dla.Workload("bzip")
	prog, setup := w.Build(1)
	mem := r3dla.NewMemory()
	setup(mem)
	m := emu.NewMachine(prog, mem)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step()
	}
}

// BenchmarkTimingModel measures coupled two-core simulation throughput
// (committed MT instructions per benchmarked op).
func BenchmarkTimingModel(b *testing.B) {
	prepAblation(b)
	for i := 0; i < b.N; i++ {
		sys := r3dla.NewSystem(ablation.prog, ablation.setup, ablation.set, ablation.prof, core.DLAOptions())
		sys.Run(10_000)
	}
}

// BenchmarkSkeletonGeneration measures the binary-analysis pass.
func BenchmarkSkeletonGeneration(b *testing.B) {
	prepAblation(b)
	for i := 0; i < b.N; i++ {
		r3dla.Skeletons(ablation.prog, ablation.prof)
	}
}
