package pipeline

import (
	"math/rand"
	"testing"

	"r3dla/internal/branch"
	"r3dla/internal/emu"
	"r3dla/internal/isa"
)

// randomProgram generates a structurally-valid random program: straight-
// line ALU/memory work with bounded loops (always terminating via a
// counter), exercising the pipeline against arbitrary dependency shapes.
// Loads and stores share eight words, so store-to-load forwarding is
// common.
func randomProgram(seed int64) *isa.Program {
	rng := rand.New(rand.NewSource(seed))
	b := isa.NewBuilder("rand")
	b.Li(1, int64(rng.Intn(200)+50)) // loop counter
	b.Li(2, 1<<20)                   // base address
	b.Label("loop")
	n := rng.Intn(30) + 5
	for i := 0; i < n; i++ {
		rd := uint8(rng.Intn(12) + 3)
		rs1 := uint8(rng.Intn(12) + 3)
		rs2 := uint8(rng.Intn(12) + 3)
		switch rng.Intn(8) {
		case 0:
			b.R(isa.ADD, rd, rs1, rs2)
		case 1:
			b.R(isa.MUL, rd, rs1, rs2)
		case 2:
			b.I(isa.ADDI, rd, rs1, int64(rng.Intn(100)))
		case 3:
			b.R(isa.XOR, rd, rs1, rs2)
		case 4:
			b.Ld(rd, 2, int64(rng.Intn(8)*8))
		case 5:
			b.St(rs1, 2, int64(rng.Intn(8)*8))
		case 6:
			b.I(isa.SHLI, rd, rs1, int64(rng.Intn(8)))
		case 7:
			b.R(isa.SUB, rd, rs1, rs2)
		}
	}
	b.I(isa.ADDI, 1, 1, -1)
	b.Br(isa.BNE, 1, isa.RegZero, "loop")
	b.Halt()
	return b.Program()
}

// randomValues is a stateless ValueSource for random programs: it
// predicts most value-producing instructions, a few of them wrongly, as a
// pure function of the dynamic instruction, so two cores fed the same
// program see the same predictions.
type randomValues struct{}

func (randomValues) Lookup(d *emu.DynInst) (uint64, bool) {
	h := uint64(d.PC)*0x9E3779B97F4A7C15 ^ d.Seq*0xC2B2AE3D27D4EB4F
	h ^= h >> 29
	switch {
	case h%5 == 0:
		return 0, false
	case h%13 == 0:
		return d.Val + 1, true
	}
	return d.Val, true
}

func (randomValues) OnOutcome(*emu.DynInst, bool) {}

// Property: for any random program, the pipeline commits exactly the
// functional instruction stream (same count, in order), never deadlocks,
// and IPC stays within physical bounds.
func TestPipelineCommitsFunctionalStream(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		prog := randomProgram(seed)

		// Functional reference count.
		ref := emu.NewMachine(prog, emu.NewMemory())
		refN := ref.Run(1_000_000, nil)

		c := newTestCore(prog, 80, nil)
		var commits uint64
		var lastSeq uint64
		ordered := true
		c.Hooks.OnCommit = func(d *emu.DynInst, now uint64) {
			if commits > 0 && d.Seq != lastSeq+1 {
				ordered = false
			}
			lastSeq = d.Seq
			commits++
		}
		m := c.Run(0)
		if m.Deadlocked {
			t.Fatalf("seed %d: deadlock", seed)
		}
		if commits != refN {
			t.Fatalf("seed %d: committed %d, functional %d", seed, commits, refN)
		}
		if !ordered {
			t.Fatalf("seed %d: out-of-order commit", seed)
		}
		if ipc := m.IPC(); ipc > float64(c.Cfg.CommitWidth) {
			t.Fatalf("seed %d: IPC %.2f exceeds commit width", seed, ipc)
		}
	}
}

// Property: issued count never exceeds dispatched, committed never
// exceeds issued+skipped, and loads+stores are consistent.
func TestPipelineCountInvariants(t *testing.T) {
	for seed := int64(30); seed <= 40; seed++ {
		c := newTestCore(randomProgram(seed), 120, nil)
		if seed%2 == 0 {
			c.Cfg.SkipValidation = true
			c.Vals = randomValues{}
		}
		m := c.Run(0)
		if m.Issued > m.Dispatched {
			t.Fatalf("issued %d > dispatched %d", m.Issued, m.Dispatched)
		}
		if m.Committed > m.Issued+m.Skipped {
			t.Fatalf("committed %d > issued+skipped %d", m.Committed, m.Issued+m.Skipped)
		}
		if m.Dispatched > m.Fetched {
			t.Fatalf("dispatched %d > fetched %d", m.Dispatched, m.Fetched)
		}
	}
}

// Property: the same program on the same seed is cycle-deterministic.
func TestPipelineDeterminism(t *testing.T) {
	prog := randomProgram(99)
	run := func() (uint64, uint64) {
		c := newTestCore(prog, 100, nil)
		m := c.Run(0)
		return m.Cycles, m.Committed
	}
	c1, n1 := run()
	c2, n2 := run()
	if c1 != c2 || n1 != n2 {
		t.Fatalf("nondeterministic: (%d,%d) vs (%d,%d)", c1, n1, c2, n2)
	}
}

// Property: widening the machine never slows it down on random programs.
func TestWiderCoreNotSlower(t *testing.T) {
	for seed := int64(50); seed <= 55; seed++ {
		prog := randomProgram(seed)
		narrow := newTestCore(prog, 100, func(c *Config) {
			c.DecodeWidth, c.IssueWidth, c.CommitWidth = 2, 2, 2
			c.IntFUs, c.MemFUs = 2, 1
		})
		wideC := newTestCore(prog, 100, func(c *Config) { *c = WideConfig() })
		mn, mw := narrow.Run(0), wideC.Run(0)
		if mw.Cycles > mn.Cycles+mn.Cycles/10 {
			t.Fatalf("seed %d: wide core slower (%d vs %d cycles)", seed, mw.Cycles, mn.Cycles)
		}
	}
}

// Property: the SMT half-core configs halve the wide core's resources.
func TestHalfConfigIsHalf(t *testing.T) {
	w, h := WideConfig(), HalfConfig()
	if h.ROB*2 != w.ROB || h.IssueWidth*2 != w.IssueWidth || h.IntFUs*2 != w.IntFUs {
		t.Fatalf("half config not half: %+v vs %+v", h, w)
	}
}

// TAGE direction source must behave identically through the interface.
func TestTageSourceMatchesPredictor(t *testing.T) {
	p1 := branch.NewPredictor(branch.DefaultConfig())
	p2 := branch.NewPredictor(branch.DefaultConfig())
	src := &TageSource{P: p2}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		pc := rng.Intn(64) * 4
		actual := rng.Intn(3) > 0
		d1 := p1.Predict(pc)
		p1.Update(pc, actual)
		d2, ok := src.PredictAndTrain(pc, actual, uint64(i))
		if !ok || d1 != d2 {
			t.Fatalf("divergence at %d: %v vs %v", i, d1, d2)
		}
	}
}
