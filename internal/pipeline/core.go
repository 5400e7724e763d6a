package pipeline

import (
	"math/bits"

	"r3dla/internal/branch"
	"r3dla/internal/cache"
	"r3dla/internal/emu"
	"r3dla/internal/isa"
	"r3dla/internal/stats"
)

// robEntry is one in-flight instruction.
type robEntry struct {
	d             emu.DynInst
	seq           uint64 // core-local monotonically increasing id
	live          bool
	dispatchCycle uint64
	issued        bool
	execDone      uint64
	mispred       bool // direction or target mispredicted at fetch

	valPred    bool
	valCorrect bool
	skipVal    bool

	// Event-driven issue (DESIGN.md §8.5). readyAt is the earliest issue
	// cycle the producers known so far allow; pending counts producers
	// that have not issued yet. Each waiting operand is a node
	// slot<<1|operand on its producer's wake list: wakeHead is the first
	// consumer waiting on this entry, wakeNext the next node after each of
	// this entry's own operands (-1 ends a list).
	readyAt  uint64
	pending  uint8
	wakeHead int32
	wakeNext [2]int32

	fwd   storeRef // load: youngest older store to the same word at dispatch
	older storeRef // store: next older store in the same forwarding bucket

	intDest bool
	fpDest  bool
}

// storeRef names one dispatched store by ROB slot and sequence number.
// The zero value names no store: sequence numbers start at 1.
type storeRef struct {
	slot int32
	seq  uint64
}

// inROB reports whether r's store is still in flight (not committed).
func (c *Core) inROB(r storeRef) bool {
	e := &c.rob[r.slot]
	return e.live && e.seq == r.seq
}

// fwdBucketBits sizes the store-forwarding index: 1<<fwdBucketBits
// address-hashed buckets, each chaining its live stores youngest first.
const fwdBucketBits = 7

// fwdBucket hashes a word address (EA>>3) onto its forwarding bucket.
func fwdBucket(word uint64) int {
	return int((word * 0x9E3779B97F4A7C15) >> (64 - fwdBucketBits))
}

// wakeup schedules one ROB slot to join the ready set at cycle at.
type wakeup struct {
	at   uint64
	slot int32
}

type fqEntry struct {
	d          emu.DynInst
	fetchCycle uint64
	mispred    bool
}

// Core is one simulated core. Construct with New, then Run (or Tick in a
// multi-core harness such as the DLA driver).
type Core struct {
	Cfg   Config
	Feed  Feeder
	Dir   DirectionSource
	Vals  ValueSource
	Hooks Hooks

	L1I, L1D *cache.Cache

	btb *branch.BTB
	ras *branch.RAS

	// fetch state. The fetch queue is a fixed ring (capacity
	// FetchBufSize): fetch pushes at the tail, dispatch pops at the
	// head, and no per-cycle slice reallocation ever happens — the seed
	// implementation's append/reslice churn here accounted for ~98% of
	// the simulator's allocated objects.
	fetchQ        []fqEntry
	fqHead, fqLen int
	lastBlock     uint64
	haveBlock     bool
	fetchStall    uint64 // no fetch before this cycle
	blockedOnSpec bool   // stop fetch until the mispredicted branch issues
	feederDone    bool

	// hintScratch is the DynInst handed to the TargetHint hook. Passing
	// &local would make every fetched instruction escape to the heap —
	// one allocation per fetch, the dominant object count in the seed's
	// heap profile — so fetch copies into this core-owned slot instead.
	hintScratch emu.DynInst

	// backend state
	rob        []robEntry
	head, tail int // ring indices
	count      int
	lsqCount   int
	seqCounter uint64
	lastWriter [isa.NumRegs]int32
	writerSeq  [isa.NumRegs]uint64
	freeInt    int
	freeFP     int
	scoreboard [isa.NumRegs]bool // value-validated marks (skip-validation)

	// Issue scheduling: entries whose producers have all issued wait in
	// the wakeups min-heap (on readyAt, capacity ROB) until due, then sit
	// in the per-slot ready bitmap until they issue. stores holds the
	// youngest store of each forwarding bucket.
	ready   []uint64
	wakeups []wakeup
	stores  [1 << fwdBucketBits]storeRef

	now uint64

	M Metrics
}

// New constructs a core over the given caches with its own BTB/RAS.
func New(cfg Config, feed Feeder, dir DirectionSource, l1i, l1d *cache.Cache) *Core {
	ringCap := cfg.FetchBufSize
	if ringCap < 1 {
		ringCap = 1
	}
	c := &Core{
		Cfg:     cfg,
		Feed:    feed,
		Dir:     dir,
		L1I:     l1i,
		L1D:     l1d,
		btb:     branch.NewBTB(cfg.BTBBits),
		ras:     branch.NewRAS(cfg.RASEntries),
		fetchQ:  make([]fqEntry, ringCap),
		rob:     make([]robEntry, cfg.ROB),
		ready:   make([]uint64, (cfg.ROB+63)/64),
		wakeups: make([]wakeup, 0, cfg.ROB),
		freeInt: cfg.IntPRF - isa.NumIntRegs,
		freeFP:  cfg.FPPRF - isa.NumFPRegs,
	}
	for i := range c.lastWriter {
		c.lastWriter[i] = -1
	}
	if cfg.TrackFetchQOcc {
		c.M.FetchQOcc = stats.NewHistogram(cfg.FetchBufSize)
	}
	if cfg.TrackSupply {
		c.M.Supply = stats.NewHistogram(cfg.FetchWidth)
	}
	if cfg.TrackDemand {
		c.M.Demand = stats.NewHistogram(cfg.DecodeWidth)
	}
	return c
}

// Now reports the core's current cycle.
func (c *Core) Now() uint64 { return c.now }

// Done reports whether the core has drained: feeder exhausted and no
// in-flight work.
func (c *Core) Done() bool {
	return c.feederDone && c.fqLen == 0 && c.count == 0
}

// fqPush appends one entry at the tail of the fetch ring. Callers check
// capacity (fqLen < Cfg.FetchBufSize) before pushing.
func (c *Core) fqPush(e fqEntry) {
	idx := c.fqHead + c.fqLen
	if idx >= len(c.fetchQ) {
		idx -= len(c.fetchQ)
	}
	c.fetchQ[idx] = e
	c.fqLen++
}

// fqPop drops the head entry of the fetch ring.
func (c *Core) fqPop() {
	c.fqHead++
	if c.fqHead == len(c.fetchQ) {
		c.fqHead = 0
	}
	c.fqLen--
}

// Tick advances the core by one cycle. Stages run commit -> issue ->
// dispatch -> fetch so that same-cycle resource frees are visible
// upstream, matching the usual reverse-order stage evaluation.
func (c *Core) Tick() {
	c.commit()
	c.issue()
	c.dispatch()
	c.fetch()
	if c.M.FetchQOcc != nil {
		c.M.FetchQOcc.Add(c.fqLen)
	}
	c.now++
	c.M.Cycles++
}

// StallTick advances the clock one cycle without doing any work. The DLA
// driver uses it to stall the look-ahead core (full BOQ, reboot window)
// while keeping both cores on the same clock.
func (c *Core) StallTick() {
	c.now++
	c.M.Cycles++
	if c.M.FetchQOcc != nil {
		c.M.FetchQOcc.Add(c.fqLen)
	}
}

// Flush squashes all in-flight work: the fetch queue and every ROB entry
// are discarded and resource counts reset. The feeder, caches, predictors
// and metrics are untouched. The DLA reboot path uses this to reset the
// look-ahead core.
func (c *Core) Flush() {
	c.fqHead, c.fqLen = 0, 0
	for i := range c.rob {
		c.rob[i].live = false
	}
	c.head, c.tail, c.count = 0, 0, 0
	clear(c.ready)
	c.wakeups = c.wakeups[:0]
	c.stores = [len(c.stores)]storeRef{}
	c.lsqCount = 0
	c.freeInt = c.Cfg.IntPRF - isa.NumIntRegs
	c.freeFP = c.Cfg.FPPRF - isa.NumFPRegs
	for i := range c.lastWriter {
		c.lastWriter[i] = -1
		c.scoreboard[i] = false
	}
	c.blockedOnSpec = false
	c.haveBlock = false
	c.feederDone = false
}

// Run executes until the feeder drains or maxInsts commit. It returns the
// metrics (also available as c.M).
func (c *Core) Run(maxInsts uint64) *Metrics {
	guard := maxInsts*1000 + 1_000_000
	for !c.Done() && (maxInsts == 0 || c.M.Committed < maxInsts) {
		c.Tick()
		if c.M.Cycles > guard {
			c.M.Deadlocked = true
			break
		}
	}
	return &c.M
}

// ---------------------------------------------------------------- commit

func (c *Core) commit() {
	for n := 0; n < c.Cfg.CommitWidth && c.count > 0; n++ {
		e := &c.rob[c.head]
		if !e.issued || e.execDone > c.now {
			return
		}
		if e.d.In.Op.IsStore() {
			c.L1D.Access(e.d.EA, true, false, c.now)
		}
		if e.d.In.Op.IsMem() {
			c.lsqCount--
		}
		if e.intDest {
			c.freeInt++
		}
		if e.fpDest {
			c.freeFP++
		}
		if c.Hooks.OnCommit != nil {
			c.Hooks.OnCommit(&e.d, c.now)
		}
		e.live = false
		if c.head++; c.head == len(c.rob) {
			c.head = 0
		}
		c.count--
		c.M.Committed++
	}
}

// ----------------------------------------------------------------- issue

// issue moves the due wakeups into the ready set, then selects from it
// in age order (oldest first, starting at head) under the issue width and
// the per-class FU limits. The selection re-reads the bitmap at every
// step, so a consumer woken this cycle by an older issuing producer is
// still seen. A ready skip-validation entry completes without taking
// width or an FU, but only while the walk is still open: once the width
// is used, younger entries, skip-validation ones included, wait a cycle.
func (c *Core) issue() {
	// Nothing in flight: every cycle of an ideal-backend run
	// (Config.InfiniteBackend), whose ROB stays empty.
	if c.count == 0 {
		return
	}
	for len(c.wakeups) > 0 && c.wakeups[0].at <= c.now {
		c.setReady(int(c.popWakeup()))
	}
	fuLeft := [3]int{c.Cfg.IntFUs, c.Cfg.MemFUs, c.Cfg.FPFUs}
	issued := 0
	// Age order is slots head..len-1, then 0..head-1.
	lo, hi, wrapped := c.head, len(c.rob), false
	for {
		p := c.nextReady(lo, hi)
		if p < 0 {
			if wrapped {
				return
			}
			lo, hi, wrapped = 0, c.head, true
			continue
		}
		lo = p + 1
		if issued >= c.Cfg.IssueWidth {
			return
		}
		e := &c.rob[p]
		// Skip-validation entries complete without execution.
		if e.skipVal {
			c.clearReady(p)
			e.issued = true
			e.execDone = e.dispatchCycle + 1
			continue
		}
		fu := fuOf(e.d.In.Op.Class())
		if fu != fuNone {
			if fuLeft[fu] == 0 {
				continue
			}
			fuLeft[fu]--
		}
		c.clearReady(p)
		issued++
		c.M.Issued++
		e.issued = true
		c.execOne(e)
		if c.Hooks.OnIssue != nil {
			c.Hooks.OnIssue(&e.d, e.dispatchCycle, e.execDone)
		}
		c.M.DispExecSum += e.execDone - e.dispatchCycle
		c.M.DispExecCount++
		c.wake(e)
	}
}

// wake releases the consumers waiting on e, which has just issued: e's
// completion time is now fixed, and a consumer whose last producer this
// was is scheduled.
func (c *Core) wake(e *robEntry) {
	for node := e.wakeHead; node >= 0; {
		ce := &c.rob[node>>1]
		next := ce.wakeNext[node&1]
		if e.execDone > ce.readyAt {
			ce.readyAt = e.execDone
		}
		if ce.pending--; ce.pending == 0 {
			c.schedule(node >> 1)
		}
		node = next
	}
	e.wakeHead = -1
}

// schedule makes slot a candidate from its readyAt on: at once when that
// cycle has come (a consumer woken mid-walk), else through the heap.
func (c *Core) schedule(slot int32) {
	at := c.rob[slot].readyAt
	if at <= c.now {
		c.setReady(int(slot))
		return
	}
	h := append(c.wakeups, wakeup{at: at, slot: slot})
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if h[parent].at <= h[i].at {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	c.wakeups = h
}

// popWakeup removes the heap's earliest wakeup and returns its slot.
func (c *Core) popWakeup() int32 {
	h := c.wakeups
	slot := h[0].slot
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		least, l, r := i, 2*i+1, 2*i+2
		if l < n && h[l].at < h[least].at {
			least = l
		}
		if r < n && h[r].at < h[least].at {
			least = r
		}
		if least == i {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	c.wakeups = h
	return slot
}

func (c *Core) setReady(slot int)   { c.ready[slot>>6] |= 1 << (slot & 63) }
func (c *Core) clearReady(slot int) { c.ready[slot>>6] &^= 1 << (slot & 63) }

// nextReady returns the first ready slot in [p, end), or -1.
func (c *Core) nextReady(p, end int) int {
	for p < end {
		if w := c.ready[p>>6] >> (p & 63); w != 0 {
			if p += bits.TrailingZeros64(w); p < end {
				return p
			}
			return -1
		}
		p = (p | 63) + 1
	}
	return -1
}

// execOne computes the completion time of an issuing instruction and
// performs its side effects (cache access, branch resolution scheduling).
func (c *Core) execOne(e *robEntry) {
	op := e.d.In.Op
	switch {
	case op.IsLoad():
		c.M.Loads++
		if c.inROB(e.fwd) {
			// Store-to-load forwarding: one cycle after the store's
			// address/data are ready.
			fe := &c.rob[e.fwd.slot]
			t := fe.execDone
			if !fe.issued {
				t = c.now + 1 // should not happen; be safe
			}
			if t < c.now {
				t = c.now
			}
			e.execDone = t + 1
			break
		}
		res := c.L1D.Access(e.d.EA, false, false, c.now)
		e.execDone = res.Done
		if res.Level >= 1 && res.Level <= 4 {
			c.M.LoadLevelHits[res.Level]++
		}
		if c.Hooks.OnLoadAccess != nil {
			c.Hooks.OnLoadAccess(&e.d, res.Level, res.Done, c.now)
		}
	case op.IsStore():
		c.M.Stores++
		e.execDone = c.now + execLatency(isa.ClassStore)
	default:
		e.execDone = c.now + execLatency(op.Class())
	}

	if op.IsControl() {
		if e.mispred {
			resume := e.execDone + c.Cfg.RedirectPenalty
			if resume > c.fetchStall {
				c.fetchStall = resume
			}
			c.blockedOnSpec = false
			c.M.WrongPathDecoded += uint64(c.Cfg.DecodeWidth) * (c.Cfg.FrontendDepth + 4) / 2
			c.M.WrongPathExecuted += uint64(c.Cfg.IssueWidth) * 3
		}
		if c.Hooks.OnBranchResolve != nil {
			c.Hooks.OnBranchResolve(&e.d, e.mispred, e.execDone)
		}
	}

	if e.valPred && !e.valCorrect {
		// Wrong value prediction: replay recovery charged as a frontend
		// bubble; the architectural value is available at execDone.
		resume := e.execDone + c.Cfg.ValueReplayPenalty
		if resume > c.fetchStall {
			c.fetchStall = resume
		}
		if c.Vals != nil {
			c.Vals.OnOutcome(&e.d, false)
		}
	} else if e.valPred && c.Vals != nil {
		c.Vals.OnOutcome(&e.d, true)
	}
}

// -------------------------------------------------------------- dispatch

func (c *Core) dispatch() {
	if c.Cfg.InfiniteBackend {
		// Ideal backend: decode drains everything fetched in earlier
		// cycles.
		for c.fqLen > 0 && c.fetchQ[c.fqHead].fetchCycle < c.now {
			c.fqPop()
			c.M.Dispatched++
			c.M.Committed++
		}
		return
	}
	if c.Cfg.PerfectFrontend {
		c.dispatchPerfectFrontend()
		return
	}

	n := 0
	starved := false
	for n < c.Cfg.DecodeWidth {
		if c.fqLen == 0 || c.fetchQ[c.fqHead].fetchCycle >= c.now {
			starved = true
			break
		}
		if c.count >= c.Cfg.ROB {
			break
		}
		fe := &c.fetchQ[c.fqHead]
		if !c.tryDispatch(fe) {
			break
		}
		c.fqPop()
		n++
	}
	c.M.Dispatched += uint64(n)
	if starved && n < c.Cfg.DecodeWidth && c.count < c.Cfg.ROB {
		c.M.FetchBubbles += uint64(c.Cfg.DecodeWidth - n)
	}
	if c.M.Demand != nil {
		c.M.Demand.Add(n)
	}
}

// dispatchPerfectFrontend pulls directly from the feeder, bypassing fetch.
func (c *Core) dispatchPerfectFrontend() {
	n := 0
	for n < c.Cfg.DecodeWidth && c.count < c.Cfg.ROB {
		d, ok := c.Feed.Peek()
		if !ok {
			c.feederDone = true
			break
		}
		fe := fqEntry{d: d, fetchCycle: c.now}
		if !c.tryDispatch(&fe) {
			break
		}
		c.Feed.Advance()
		n++
	}
	c.M.Dispatched += uint64(n)
	c.M.Fetched += uint64(n)
	if c.M.Demand != nil {
		c.M.Demand.Add(n)
	}
}

// tryDispatch inserts one fetched instruction into the ROB; false means a
// structural hazard (LSQ/PRF) blocks dispatch this cycle.
func (c *Core) tryDispatch(fe *fqEntry) bool {
	d := &fe.d
	isMem := d.In.Op.IsMem()
	if isMem && c.lsqCount >= c.Cfg.LSQ {
		return false
	}
	dest := d.In.Dest()
	intDest := dest != isa.NoReg && dest != isa.RegZero && dest < isa.FPRegBase
	fpDest := dest != isa.NoReg && dest >= isa.FPRegBase
	if intDest && c.freeInt == 0 {
		return false
	}
	if fpDest && c.freeFP == 0 {
		return false
	}

	slot := int32(c.tail)
	e := &c.rob[slot]
	c.seqCounter++
	*e = robEntry{
		d:             *d,
		seq:           c.seqCounter,
		live:          true,
		dispatchCycle: c.now,
		mispred:       fe.mispred,
		readyAt:       c.now + 1,
		wakeHead:      -1,
		intDest:       intDest,
		fpDest:        fpDest,
	}
	var srcBuf [2]uint8
	srcs := d.In.Sources(srcBuf[:0])

	// Value prediction (DLA value reuse).
	if c.Vals != nil && d.HasVal {
		if pv, ok := c.Vals.Lookup(d); ok {
			e.valPred = true
			e.valCorrect = pv == d.Val
			c.M.ValuePreds++
			if !e.valCorrect {
				c.M.ValueMispreds++
			}
			if c.Cfg.SkipValidation && d.In.Op.Class() == isa.ClassALU && c.sourcesValidated(srcs) {
				e.skipVal = true
				c.M.Skipped++
			}
		}
	}
	c.updateScoreboard(d, e.valPred)

	// Register dependencies. A producer's completion time is known now if
	// its value is (skip-validation or a correct value prediction) or it
	// has issued; otherwise this operand waits on the producer's wake
	// list. Skip-validation entries wait on nothing.
	for i, r := range srcs {
		if e.skipVal || r == isa.RegZero || c.lastWriter[r] < 0 {
			continue
		}
		we := &c.rob[c.lastWriter[r]]
		if !we.live || we.seq != c.writerSeq[r] {
			continue // committed: value architecturally available
		}
		t := we.execDone
		switch {
		case we.skipVal || (we.valPred && we.valCorrect):
			t = we.dispatchCycle + 1
		case !we.issued:
			e.wakeNext[i] = we.wakeHead
			we.wakeHead = slot<<1 | int32(i)
			e.pending++
			continue
		}
		if t > e.readyAt {
			e.readyAt = t
		}
	}
	if e.pending == 0 {
		c.schedule(slot)
	}

	// Store-to-load forwarding: the youngest older store to the same word.
	// A bucket chains its stores youngest first; the first stale link has
	// committed, and so has every store older than it.
	switch word := d.EA >> 3; {
	case d.In.Op.IsLoad():
		for ref := c.stores[fwdBucket(word)]; c.inROB(ref); ref = c.rob[ref.slot].older {
			if c.rob[ref.slot].d.EA>>3 == word {
				e.fwd = ref
				break
			}
		}
	case d.In.Op.IsStore():
		b := fwdBucket(word)
		e.older = c.stores[b]
		c.stores[b] = storeRef{slot: slot, seq: e.seq}
	}

	if intDest {
		c.freeInt--
	}
	if fpDest {
		c.freeFP--
	}
	if dest != isa.NoReg && dest != isa.RegZero {
		c.lastWriter[dest] = slot
		c.writerSeq[dest] = e.seq
	}
	if isMem {
		c.lsqCount++
	}
	if c.tail++; c.tail == len(c.rob) {
		c.tail = 0
	}
	c.count++
	return true
}

func (c *Core) sourcesValidated(srcs []uint8) bool {
	for _, r := range srcs {
		if r == isa.RegZero {
			continue
		}
		if !c.scoreboard[r] {
			return false
		}
	}
	return true
}

// updateScoreboard implements the decode-stage validation scoreboard of
// Sec. III-D1: ALU instructions producing a value prediction mark their
// destination validated; any other writer clears it.
func (c *Core) updateScoreboard(d *emu.DynInst, valPred bool) {
	dest := d.In.Dest()
	if dest == isa.NoReg || dest == isa.RegZero {
		return
	}
	c.scoreboard[dest] = valPred && d.In.Op.Class() == isa.ClassALU
}

// ----------------------------------------------------------------- fetch

func (c *Core) fetch() {
	if c.Cfg.PerfectFrontend {
		return
	}
	if c.now < c.fetchStall || c.blockedOnSpec {
		return
	}
	fetched := 0
	for fetched < c.Cfg.FetchWidth && c.fqLen < c.Cfg.FetchBufSize {
		d, ok := c.Feed.Peek()
		if !ok {
			c.feederDone = true
			break
		}
		if c.Hooks.FetchTag != nil {
			d.Tag = c.Hooks.FetchTag()
		}

		// I-cache: one access per block transition.
		blk := isa.PCAddr(d.PC) >> c.L1I.BlockBits()
		if !c.haveBlock || blk != c.lastBlock {
			res := c.L1I.Access(isa.PCAddr(d.PC), false, false, c.now)
			c.lastBlock, c.haveBlock = blk, true
			if res.Level > 1 {
				// I-cache miss: fetch resumes when the fill returns.
				c.fetchStall = res.Done
				break
			}
		}

		mispred := false
		op := d.In.Op
		switch {
		case op.IsCondBranch():
			pred, ok := c.Dir.PredictAndTrain(d.PC, d.Taken, c.now)
			if !ok {
				c.M.FetchStallBOQ++
				return // direction source empty (BOQ): retry next cycle
			}
			c.M.CondBranches++
			if pred != d.Taken {
				mispred = true
				c.M.DirMispredicts++
			}
		case op.IsIndirect():
			var target int
			var okT bool
			if c.Hooks.TargetHint != nil {
				c.hintScratch = d
				target, okT = c.Hooks.TargetHint(&c.hintScratch)
			}
			if !okT {
				if op == isa.RET {
					target, okT = c.ras.Pop()
				} else {
					target, okT = c.btb.Lookup(d.PC)
				}
			} else if op == isa.RET {
				c.ras.Pop() // keep the stack aligned even when hinted
			}
			if op == isa.CALR {
				c.ras.Push(d.PC + 1)
			}
			if !okT || target != d.NextPC {
				mispred = true
				c.M.TargetMispredicts++
			}
			c.btb.Update(d.PC, d.NextPC)
		case op == isa.CALL:
			c.ras.Push(d.PC + 1)
		}

		c.Feed.Advance()
		c.M.Fetched++
		fetched++
		c.fqPush(fqEntry{d: d, fetchCycle: c.now, mispred: mispred})

		if mispred {
			c.blockedOnSpec = true // wrong path beyond here: stall until resolve
			break
		}
		if op.IsControl() && d.Taken {
			c.haveBlock = false // redirect: next fetch touches a new block
			if !c.Cfg.NoFetchBreakOnTaken {
				break
			}
		}
	}
	if c.M.Supply != nil {
		c.M.Supply.Add(fetched)
	}
}
