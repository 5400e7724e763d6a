package bench

import (
	"flag"
	"testing"
)

// TestRunSuiteMinIters asserts a def's iteration floor overrides a
// smaller caller benchtime, a def without one keeps the caller's count,
// and the caller's benchtime survives the suite.
func TestRunSuiteMinIters(t *testing.T) {
	bt := flag.Lookup("test.benchtime")
	prev := bt.Value.String()
	if err := bt.Value.Set("3x"); err != nil {
		t.Fatal(err)
	}
	defer bt.Value.Set(prev)

	body := func(b *testing.B) {
		for range b.N {
		}
	}
	res := RunSuite([]Def{
		{Name: "floored", F: body, MinIters: 500},
		{Name: "caller", F: body},
		{Name: "floor below caller", F: body, MinIters: 2},
	}, nil)
	for i, want := range []int{500, 3, 3} {
		if res[i].Iterations != want {
			t.Errorf("%s: %d iterations, want %d", res[i].Name, res[i].Iterations, want)
		}
	}
	if got := bt.Value.String(); got != "3x" {
		t.Errorf("benchtime after the suite = %q, want the caller's 3x", got)
	}
}
