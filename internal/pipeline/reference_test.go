package pipeline

import (
	"fmt"
	"testing"

	"r3dla/internal/branch"
	"r3dla/internal/cache"
	"r3dla/internal/emu"
	"r3dla/internal/isa"
)

// refCore is the polling scheduler the event-driven issue replaced, kept
// as a test oracle. Every cycle it walks the unissued ROB entries in age
// order and re-derives both producers of each; each load searches the
// ROB backwards for its forwarding store. It runs on a Core of its own
// and replaces only issue and dispatch: commit, execute and fetch are the
// production code. prod/prodSeq are the per-slot register producers the
// scan re-reads (-1 = ready).
type refCore struct {
	*Core
	prod    [][2]int32
	prodSeq [][2]uint64
}

func newRefCore(c *Core) *refCore {
	return &refCore{Core: c, prod: make([][2]int32, len(c.rob)), prodSeq: make([][2]uint64, len(c.rob))}
}

func (r *refCore) tick() {
	r.commit()
	r.issue()
	r.dispatch()
	r.fetch()
	r.now++
	r.M.Cycles++
}

// producerReady reports when the value produced by slot/seq becomes
// available, or (0,true) if the producer already left the ROB.
func (r *refCore) producerReady(slot int32, seq uint64) (uint64, bool) {
	if slot < 0 {
		return 0, true
	}
	e := &r.rob[slot]
	if !e.live || e.seq != seq {
		return 0, true // committed: value architecturally available
	}
	if e.skipVal || (e.valPred && e.valCorrect) {
		return e.dispatchCycle + 1, true
	}
	if !e.issued {
		return 0, false
	}
	return e.execDone, true
}

func (r *refCore) issue() {
	fuLeft := [3]int{r.Cfg.IntFUs, r.Cfg.MemFUs, r.Cfg.FPFUs}
	issued := 0
	for k := 0; k < r.count && issued < r.Cfg.IssueWidth; k++ {
		slot := (r.head + k) % len(r.rob)
		e := &r.rob[slot]
		if e.issued {
			continue
		}
		if e.dispatchCycle+1 > r.now {
			break
		}
		if e.skipVal {
			e.issued = true
			e.execDone = e.dispatchCycle + 1
			continue
		}
		ready, ok := uint64(0), true
		for p := 0; p < 2; p++ {
			t, rd := r.producerReady(r.prod[slot][p], r.prodSeq[slot][p])
			if !rd {
				ok = false
				break
			}
			ready = max(ready, t)
		}
		if !ok || ready > r.now {
			continue
		}
		fu := fuOf(e.d.In.Op.Class())
		if fu != fuNone {
			if fuLeft[fu] == 0 {
				continue
			}
			fuLeft[fu]--
		}
		issued++
		r.M.Issued++
		e.issued = true
		r.execOne(e)
		if r.Hooks.OnIssue != nil {
			r.Hooks.OnIssue(&e.d, e.dispatchCycle, e.execDone)
		}
		r.M.DispExecSum += e.execDone - e.dispatchCycle
		r.M.DispExecCount++
	}
}

func (r *refCore) dispatch() {
	n := 0
	starved := false
	for n < r.Cfg.DecodeWidth {
		if r.fqLen == 0 || r.fetchQ[r.fqHead].fetchCycle >= r.now {
			starved = true
			break
		}
		if r.count >= r.Cfg.ROB || !r.tryDispatch(&r.fetchQ[r.fqHead]) {
			break
		}
		r.fqPop()
		n++
	}
	r.M.Dispatched += uint64(n)
	if starved && n < r.Cfg.DecodeWidth && r.count < r.Cfg.ROB {
		r.M.FetchBubbles += uint64(r.Cfg.DecodeWidth - n)
	}
}

func (r *refCore) tryDispatch(fe *fqEntry) bool {
	d := &fe.d
	isMem := d.In.Op.IsMem()
	if isMem && r.lsqCount >= r.Cfg.LSQ {
		return false
	}
	dest := d.In.Dest()
	intDest := dest != isa.NoReg && dest != isa.RegZero && dest < isa.FPRegBase
	fpDest := dest != isa.NoReg && dest >= isa.FPRegBase
	if (intDest && r.freeInt == 0) || (fpDest && r.freeFP == 0) {
		return false
	}
	e := &r.rob[r.tail]
	r.seqCounter++
	*e = robEntry{d: *d, seq: r.seqCounter, live: true, dispatchCycle: r.now,
		mispred: fe.mispred, wakeHead: -1, intDest: intDest, fpDest: fpDest}
	r.prod[r.tail] = [2]int32{-1, -1}

	var srcBuf [2]uint8
	srcs := d.In.Sources(srcBuf[:0])
	for i, reg := range srcs {
		if reg == isa.RegZero {
			continue
		}
		if w := r.lastWriter[reg]; w >= 0 {
			if we := &r.rob[w]; we.live && we.seq == r.writerSeq[reg] {
				r.prod[r.tail][i] = w
				r.prodSeq[r.tail][i] = r.writerSeq[reg]
			}
		}
	}
	if d.In.Op.IsLoad() {
		for k := 1; k <= r.count; k++ {
			slot := (r.tail - k + len(r.rob)) % len(r.rob)
			se := &r.rob[slot]
			if se.d.In.Op.IsStore() && se.d.EA>>3 == d.EA>>3 {
				e.fwd = storeRef{slot: int32(slot), seq: se.seq}
				break
			}
		}
	}
	if r.Vals != nil && d.HasVal {
		if pv, ok := r.Vals.Lookup(d); ok {
			e.valPred = true
			e.valCorrect = pv == d.Val
			r.M.ValuePreds++
			if !e.valCorrect {
				r.M.ValueMispreds++
			}
			if r.Cfg.SkipValidation && d.In.Op.Class() == isa.ClassALU && r.sourcesValidated(srcs) {
				e.skipVal = true
				r.M.Skipped++
			}
		}
	}
	r.updateScoreboard(d, e.valPred)
	if intDest {
		r.freeInt--
	}
	if fpDest {
		r.freeFP--
	}
	if dest != isa.NoReg && dest != isa.RegZero {
		r.lastWriter[dest] = int32(r.tail)
		r.writerSeq[dest] = e.seq
	}
	if isMem {
		r.lsqCount++
	}
	r.tail = (r.tail + 1) % len(r.rob)
	r.count++
	return true
}

// issueEvent is one OnIssue firing, identified by ROB slot and the
// instruction's dynamic sequence number.
type issueEvent struct {
	cycle, seq, execDone uint64
	slot                 int
}

// recordIssues installs an OnIssue hook on c that appends to *log.
func recordIssues(c *Core, log *[]issueEvent) {
	c.Hooks.OnIssue = func(d *emu.DynInst, _, execDone uint64) {
		slot := -1
		for i := range c.rob {
			if &c.rob[i].d == d {
				slot = i
			}
		}
		*log = append(*log, issueEvent{cycle: c.now, seq: d.Seq, execDone: execDone, slot: slot})
	}
}

// diffCase is one configuration of the differential test.
type diffCase struct {
	name       string
	l1dLatency uint64 // 0 makes L1D hits complete in their issue cycle
	values     bool   // attach randomValues
	skipVal    bool   // Config.SkipValidation
	flushEvery uint64 // Flush both cores every this many cycles (0 = never)
	issueWidth int    // overrides Config.IssueWidth when nonzero
}

// newDiffCore builds a core over prog whose L1D has the given hit latency.
func newDiffCore(prog *isa.Program, tc diffCase) *Core {
	cfg := DefaultConfig()
	cfg.SkipValidation = tc.skipVal
	if tc.issueWidth > 0 {
		cfg.IssueWidth = tc.issueWidth
	}
	next := &fixedMem{lat: 40}
	l1i := cache.New(cache.Config{Name: "L1I", SizeBytes: 32 << 10, Ways: 4, BlockBits: 6, Latency: 3, MSHRs: 8}, next)
	l1d := cache.New(cache.Config{Name: "L1D", SizeBytes: 32 << 10, Ways: 4, BlockBits: 6, Latency: tc.l1dLatency, MSHRs: 32}, next)
	feed := &MachineFeeder{M: emu.NewMachine(prog, emu.NewMemory())}
	c := New(cfg, feed, &TageSource{P: branch.NewPredictor(branch.DefaultConfig())}, l1i, l1d)
	if tc.values {
		c.Vals = randomValues{}
	}
	return c
}

// coverage counts what a differential run exercised, so a pass is not
// vacuous.
type coverage struct {
	forwarded, skipped, flushes, sameCycleDone uint64
}

// diffRun ticks the production core and the reference in lockstep and
// returns the first divergence: a different per-cycle OnIssue sequence,
// a different forwarding store for any live load, different commits or
// different final metrics.
func diffRun(prog *isa.Program, tc diffCase, cov *coverage) error {
	c := newDiffCore(prog, tc)
	r := newRefCore(newDiffCore(prog, tc))
	var got, want []issueEvent
	recordIssues(c, &got)
	recordIssues(r.Core, &want)
	var gotCommits, wantCommits []uint64
	c.Hooks.OnCommit = func(d *emu.DynInst, now uint64) { gotCommits = append(gotCommits, d.Seq, now) }
	r.Hooks.OnCommit = func(d *emu.DynInst, now uint64) { wantCommits = append(wantCommits, d.Seq, now) }

	const maxCycles = 400_000
	for cycle := uint64(0); !c.Done() || !r.Done(); cycle++ {
		if cycle == maxCycles {
			return fmt.Errorf("no drain after %d cycles", maxCycles)
		}
		if tc.flushEvery > 0 && cycle%tc.flushEvery == tc.flushEvery-1 {
			c.Flush()
			r.Flush()
			cov.flushes++
		}
		got, want = got[:0], want[:0]
		c.Tick()
		r.tick()
		if len(got) != len(want) {
			return fmt.Errorf("cycle %d: %d issues, reference %d\n got  %v\n want %v", cycle, len(got), len(want), got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				return fmt.Errorf("cycle %d: issue %d = %+v, reference %+v", cycle, i, got[i], want[i])
			}
			if got[i].execDone == got[i].cycle {
				cov.sameCycleDone++
			}
		}
		for i := range c.rob {
			ce, re := &c.rob[i], &r.rob[i]
			if ce.live != re.live || ce.seq != re.seq || ce.fwd != re.fwd {
				return fmt.Errorf("cycle %d: slot %d live/seq/fwd = %v/%d/%+v, reference %v/%d/%+v",
					cycle, i, ce.live, ce.seq, ce.fwd, re.live, re.seq, re.fwd)
			}
			if ce.live && ce.dispatchCycle == cycle && ce.fwd.seq != 0 {
				cov.forwarded++
			}
		}
		if len(gotCommits) != len(wantCommits) {
			return fmt.Errorf("cycle %d: %d commits, reference %d", cycle, len(gotCommits)/2, len(wantCommits)/2)
		}
	}
	for i := range gotCommits {
		if gotCommits[i] != wantCommits[i] {
			return fmt.Errorf("commit stream diverges at entry %d", i/2)
		}
	}
	if c.M != r.M {
		return fmt.Errorf("metrics differ:\n got  %+v\n want %+v", c.M, r.M)
	}
	cov.skipped += c.M.Skipped
	return nil
}

// TestEventIssueMatchesReference checks the event-driven scheduler
// against the polling scan over random programs: the same instructions
// issue in the same cycles from the same slots with the same completion
// times, every load picks the same forwarding store, and commits and
// metrics agree. The cases cover value prediction (right and wrong),
// skip-validation, periodic flushes and a zero-latency L1D, on which a
// load's consumer can be woken and issued in the load's own cycle. The
// narrow-issue case commits wider than it issues: only there can a
// skip-validation entry left behind the issue-width cutoff be seen, as a
// commit one cycle later.
func TestEventIssueMatchesReference(t *testing.T) {
	cases := []diffCase{
		{name: "plain", l1dLatency: 3},
		{name: "values", l1dLatency: 3, values: true},
		{name: "skipval", l1dLatency: 3, values: true, skipVal: true},
		{name: "flush", l1dLatency: 3, values: true, skipVal: true, flushEvery: 97},
		{name: "skipval-narrow-issue", l1dLatency: 3, values: true, skipVal: true, issueWidth: 2},
		{name: "zero-latency", l1dLatency: 0},
		{name: "zero-latency-skipval-flush", l1dLatency: 0, values: true, skipVal: true, flushEvery: 61},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var cov coverage
			for seed := int64(1); seed <= 12; seed++ {
				if err := diffRun(randomProgram(seed), tc, &cov); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
			if cov.forwarded == 0 {
				t.Error("no load forwarded from a store")
			}
			if tc.skipVal && cov.skipped == 0 {
				t.Error("no skip-validation entry")
			}
			if tc.flushEvery > 0 && cov.flushes == 0 {
				t.Error("no flush")
			}
			if tc.l1dLatency == 0 && cov.sameCycleDone == 0 {
				t.Error("no instruction completed in its issue cycle")
			}
		})
	}
}
