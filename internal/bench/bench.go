// Package bench is the in-repo performance trajectory: a fixed suite of
// benchmarks over the simulation core (and the fleet distribution layer),
// run programmatically through testing.Benchmark, serialized to the
// committed BENCH_core.json / BENCH_fleet.json files, and diffed in CI by
// Check so a ns/op or allocs/op regression beyond the tolerance band is a
// red X instead of a silent drift.
//
// The headline benchmark is CoreRun/mcf_r3 — one warm-prep cycle-accurate
// single-cell simulation, the unit of work every sweep, experiment and
// fleet request fans out over. CoreRun also covers one workload of each
// other suite (crono bfs, npb cg), so the cycle loop is not tuned on mcf
// alone. The committed file records both the seed core (Baseline
// section, measured before the optimization pass and carried forward
// verbatim) and the current core, so the speedup is a reviewable
// artifact rather than a claim.
package bench

import (
	"context"
	"flag"
	"fmt"
	"net/http/httptest"
	"testing"

	"r3dla/internal/core"
	"r3dla/internal/fleet"
	"r3dla/internal/lab"
	"r3dla/internal/sweep"
)

// Def is one suite member: a stable name and a standard benchmark body.
type Def struct {
	Name string
	F    func(b *testing.B)

	// MinIters is the fewest iterations a measurement may rest on. A
	// caller's -benchtime yielding fewer (e.g. 3x) is raised to it:
	// a few iterations of a nanosecond or microsecond body measure
	// timer and scheduler noise, not the body. 0 keeps the caller's
	// count.
	MinIters int
}

// CoreBudget is the committed-instruction budget of the single-cell
// benchmarks. Changing it invalidates the committed trajectory.
const CoreBudget = 10_000

// coreRunMinIters floors every CoreRun member: one cell takes several
// milliseconds, so 30 iterations run each member for about 0.2 s or more
// and a single preemption on a shared host no longer decides its ns/op.
const coreRunMinIters = 30

// CoreSuite returns the core benchmarks in presentation order. mcf is the
// paper's poster child (highest L2 MPKI in the suite, heavy look-ahead
// activity, all four R3 mechanisms engaged under the r3 preset); bfs and
// cg stand for the crono and npb suites.
func CoreSuite() []Def {
	preps := map[string]*lab.Prepared{}
	// getPrep prepares a workload once at the suite budget; every
	// iteration then measures simulation only, never preparation.
	getPrep := func(b *testing.B, workload string) *lab.Prepared {
		b.Helper()
		if p := preps[workload]; p != nil {
			return p
		}
		l, err := lab.New(lab.WithBudget(CoreBudget))
		if err != nil {
			b.Fatal(err)
		}
		p, err := l.Prepare(context.Background(), workload)
		if err != nil {
			b.Fatal(err)
		}
		preps[workload] = p
		return p
	}
	coreRun := func(workload string, opt core.Options) func(b *testing.B) {
		return func(b *testing.B) { runOnce(b, getPrep(b, workload), opt) }
	}
	return []Def{
		{
			// The headline: one full R3-DLA cell, system construction +
			// cycle loop, at a warm prep.
			Name:     "CoreRun/mcf_r3",
			MinIters: coreRunMinIters,
			F:        coreRun("mcf", core.R3Options()),
		},
		{Name: "CoreRun/mcf_dla", MinIters: coreRunMinIters, F: coreRun("mcf", core.DLAOptions())},
		{Name: "CoreRun/mcf_baseline", MinIters: coreRunMinIters, F: coreRun("mcf", core.Options{Disable: true, WithBOP: true})},
		{Name: "CoreRun/bfs_r3", MinIters: coreRunMinIters, F: coreRun("bfs", core.R3Options())},
		{Name: "CoreRun/cg_r3", MinIters: coreRunMinIters, F: coreRun("cg", core.R3Options())},
		{
			// The binary-analysis pass alone: profile-driven skeleton
			// generation for the whole recycle pool.
			Name:     "SkeletonGen/mcf",
			MinIters: 2_000,
			F: func(b *testing.B) {
				p := getPrep(b, "mcf")
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if s := core.Generate(p.Prog, p.Prof); s.Baseline == nil {
						b.Fatal("no baseline skeleton")
					}
				}
			},
		},
		{
			// Queue substrate: one BOQ push+pop and one FQ push+pop per op.
			Name:     "Queues/boq_fq",
			MinIters: 10_000_000,
			F: func(b *testing.B) {
				boq := core.NewBOQ(512)
				fq := core.NewFQ(128)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					boq.Push(i&1 == 0)
					boq.Pop()
					fq.Push(core.FQEntry{PC: i, Addr: uint64(i)})
					fq.Pop()
				}
			},
		},
	}
}

// runOnce times one cycle-accurate cell per iteration over a warm prep.
func runOnce(b *testing.B, p *lab.Prepared, opt core.Options) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys := core.NewSystemWithMemory(p.Prog, p.Image().Fork(), p.Set, p.Prof, opt)
		if r := sys.Run(CoreBudget); r.MT.Committed == 0 {
			b.Fatal("no instructions committed")
		}
	}
}

// FleetSweepSpec is the fixed grid of the fleet suite (mirrors the
// BenchmarkFleetSweep grid in bench_test.go).
func FleetSweepSpec(budget uint64) sweep.Spec {
	return sweep.Spec{
		Workloads: []string{"mcf"},
		Budget:    budget,
		Axes: sweep.Axes{
			Preset:  []string{"dla", "r3"},
			BOQSize: []int{64, 512},
		},
	}
}

// fleetBudget keeps the fleet suite CI-friendly; the delta between the
// members is the interesting number, not the absolute time.
const fleetBudget = 6_000

// FleetSuite returns the distribution-layer benchmarks: the same fixed
// sweep locally, through one r3dlad-shaped server, and sharded over
// three. Fresh labs/servers per iteration so singleflight caches never
// turn later iterations into cache reads.
func FleetSuite() []Def {
	bench := func(nBackends int) func(b *testing.B) {
		return func(b *testing.B) {
			spec := FleetSweepSpec(fleetBudget)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				runner, cleanup, err := newFleetRunner(nBackends)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := sweep.Run(context.Background(), runner, spec, sweep.Options{}); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				cleanup()
				b.StartTimer()
			}
		}
	}
	return []Def{
		{Name: "FleetSweep/local", F: bench(0)},
		{Name: "FleetSweep/1backend", F: bench(1)},
		{Name: "FleetSweep/3backends", F: bench(3)},
	}
}

// newFleetRunner builds the sweep runner of one fleet-bench iteration:
// an in-process Lab for 0 backends, otherwise a Pool over n
// r3dlad-shaped httptest servers.
func newFleetRunner(n int) (sweep.Runner, func(), error) {
	if n == 0 {
		l, err := lab.New(lab.WithBudget(fleetBudget))
		return l, func() {}, err
	}
	var members []fleet.Backend
	var servers []*httptest.Server
	for j := 0; j < n; j++ {
		l, err := lab.New(lab.WithBudget(fleetBudget))
		if err != nil {
			return nil, nil, err
		}
		srv := httptest.NewServer(lab.NewServer(l))
		servers = append(servers, srv)
		r, err := fleet.NewRemote(srv.URL)
		if err != nil {
			srv.Close()
			return nil, nil, err
		}
		members = append(members, r)
	}
	pool, err := fleet.NewPool(members)
	if err != nil {
		return nil, nil, err
	}
	return pool, func() {
		pool.Close()
		for _, srv := range servers {
			srv.Close()
		}
	}, nil
}

// Suite resolves a suite by name ("core" or "fleet").
func Suite(name string) ([]Def, error) {
	switch name {
	case "core":
		return CoreSuite(), nil
	case "fleet":
		return FleetSuite(), nil
	}
	return nil, fmt.Errorf("bench: unknown suite %q (want core or fleet)", name)
}

// RunSuite executes the defs in order and returns one Result per def.
// Benchmark timing honors the testing benchtime configured by the caller
// (see cmd/r3dla's bench subcommand), raised to each def's MinIters.
func RunSuite(defs []Def, progress func(Result)) []Result {
	out := make([]Result, 0, len(defs))
	for _, d := range defs {
		br := testing.Benchmark(d.F)
		if br.N < d.MinIters {
			br = benchmarkN(d.F, d.MinIters)
		}
		r := Result{
			Name:        d.Name,
			Iterations:  br.N,
			NsPerOp:     float64(br.NsPerOp()),
			AllocsPerOp: br.AllocsPerOp(),
			BytesPerOp:  br.AllocedBytesPerOp(),
		}
		out = append(out, r)
		if progress != nil {
			progress(r)
		}
	}
	return out
}

// benchmarkN runs f for exactly n iterations by pointing the testing
// package's benchtime at "nx" for the one call, then restoring it.
func benchmarkN(f func(b *testing.B), n int) testing.BenchmarkResult {
	testing.Init() // registers the flag; a no-op when already called
	bt := flag.Lookup("test.benchtime")
	prev := bt.Value.String()
	if err := bt.Value.Set(fmt.Sprintf("%dx", n)); err != nil {
		panic(err)
	}
	defer bt.Value.Set(prev)
	return testing.Benchmark(f)
}
