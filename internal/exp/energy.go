package exp

import (
	"r3dla/internal/core"
	"r3dla/internal/energy"
)

// RunEnergy totals one run's energy under p: cpuJ covers both cores plus
// the shared L3 (the CPU total of Fig. 10a), dramJ the memory system
// (Fig. 10b). Wall time for every component is the MT's cycle count —
// the coupled system runs until the main thread retires its budget, so
// static energy accrues for that duration on both cores. The Lab's
// RunResult energy fields and the Fig. 10 experiment both derive from
// this one accounting, so a run's reported joules and the paper artifact
// can never disagree.
func RunEnergy(r *core.Results, p energy.Params) (cpuJ, dramJ float64) {
	wall := r.MT.Cycles
	cpuJ = energy.Core(energy.CoreActivity{
		Metrics: r.MT, L1I: &r.MTMem.L1I, L1D: &r.MTMem.L1D,
		L2: &r.MTMem.L2, WallCycles: wall,
	}, p).TotalJ()
	if r.LT != nil {
		cpuJ += energy.Core(energy.CoreActivity{
			Metrics: r.LT, L1I: &r.LTMem.L1I, L1D: &r.LTMem.L1D,
			L2: &r.LTMem.L2, WallCycles: wall,
		}, p).TotalJ()
	}
	cpuJ += energy.Shared(&r.Shared.L3, wall, p).TotalJ()
	dramJ = energy.DRAM(&r.Shared.DRAM, wall, p).TotalJ()
	return cpuJ, dramJ
}
