package core

import (
	"reflect"
	"runtime"
	"slices"
	"testing"
	"weak"
)

// cloneResults deep-copies r, so a later comparison sees through every
// pointer r holds.
func cloneResults(r *Results) *Results {
	c := *r
	c.MT = r.MT.Clone()
	if r.LT != nil {
		c.LT = r.LT.Clone()
	}
	c.SkeletonUse = slices.Clone(r.SkeletonUse)
	return &c
}

// TestResultsDetachedFromSystem asserts a Results is a snapshot: it does
// not keep its System reachable (the run memo holds every Results it
// ever produced), and a System that keeps running never changes a
// Results it returned earlier.
func TestResultsDetachedFromSystem(t *testing.T) {
	prog, setup, prof, set := mixProfile()
	const budget = 10_000

	sys := NewSystem(prog, setup, set, prof, R3Options())
	first := sys.Run(budget)
	want := cloneResults(first)
	second := sys.Run(2 * budget)
	if second.MT.Committed <= want.MT.Committed {
		t.Fatalf("continued run committed %d, not past the first run's %d", second.MT.Committed, want.MT.Committed)
	}
	if !reflect.DeepEqual(first, want) {
		t.Error("running the System on changed a Results it returned earlier")
	}

	sys = NewSystem(prog, setup, set, prof, R3Options())
	wp := weak.Make(sys)
	kept := sys.Run(budget)
	sys = nil
	runtime.GC()
	if wp.Value() != nil {
		t.Error("a kept Results still pins the System that produced it")
	}
	runtime.KeepAlive(kept)
}
