package pipeline

import (
	"testing"

	"r3dla/internal/emu"
	"r3dla/internal/isa"
)

// dependentMemProgram is a load/store-heavy loop whose loads feed ALU
// chains that feed stores to the same words: every cycle exercises the
// wake lists, the wakeup heap and store-to-load forwarding.
func dependentMemProgram(iters int64) *isa.Program {
	b := isa.NewBuilder("depmem")
	b.Li(1, iters)
	b.Li(2, 1<<20)
	b.Label("loop")
	b.Ld(3, 2, 0)
	b.I(isa.ADDI, 3, 3, 1)
	b.St(3, 2, 0)
	b.Ld(4, 2, 8)
	b.R(isa.ADD, 5, 3, 4)
	b.St(5, 2, 16)
	b.R(isa.MUL, 6, 5, 5)
	b.St(6, 2, 8)
	b.Ld(7, 2, 16)
	b.R(isa.XOR, 8, 7, 6)
	b.St(8, 2, 24)
	b.I(isa.ADDI, 1, 1, -1)
	b.Br(isa.BNE, 1, isa.RegZero, "loop")
	b.Halt()
	return b.Program()
}

// The per-cycle path (commit → issue → dispatch → fetch) must be
// allocation-free in steady state: one heap object per cycle — which is
// what the escaping fetch-hint local used to cost — dominates the whole
// simulator's allocation profile (see DESIGN.md §8). The core is warmed
// up first so one-time growth (predictor tables, cold cache fills) is
// excluded. A TargetHint hook is installed even though these programs
// have no indirect branches: escape analysis is static, so if fetch ever
// goes back to passing &local to the hook, every fetched instruction
// allocates whether or not the hook fires — exactly what this test must
// catch. The measured window includes one Flush, and the dependent
// load/store program keeps the issue scheduler's wakeup heap and wake
// lists busy, the places a per-cycle allocation could hide.
func TestTickSteadyStateAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name string
		prog *isa.Program
	}{
		{"independent-alu", independentALUProgram(10_000_000)},
		{"dependent-mem", dependentMemProgram(10_000_000)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newTestCore(tc.prog, 80, nil)
			c.Hooks.TargetHint = func(d *emu.DynInst) (int, bool) { return 0, false }
			c.Run(20_000) // warm-up: budget stops the run long before the program halts
			if c.Done() {
				t.Fatal("warm-up ran the program to completion; steady-state measurement needs remaining work")
			}
			warm := c.M.Committed
			ticks := 0
			allocs := testing.AllocsPerRun(20_000, func() {
				if ticks++; ticks == 10_000 {
					c.Flush()
				}
				c.Tick()
			})
			if allocs != 0 {
				t.Errorf("steady-state Tick allocates %.2f objects per cycle, want 0", allocs)
			}
			if c.M.Committed-warm < 10_000 {
				t.Fatalf("measured window committed %d instructions, want a steady stream", c.M.Committed-warm)
			}
		})
	}
}
