package lab

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"r3dla/internal/workloads"
)

// liveHeap reports the heap still reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestServerRetentionBounded is the bounded-memory test of a long-running
// service: hundreds of distinct cells pushed through one Server leave
// behind only their memoized counter snapshots, never the simulated
// machines (caches, DRAM, cores, memory forks) that produced them.
func TestServerRetentionBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("pushes 500 simulations through one server")
	}
	l, err := New(WithBudget(2_000), WithJobs(2))
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(l)
	post := func(workload string, budget int) {
		t.Helper()
		body := fmt.Sprintf(`{"workload":%q,"config":{"preset":"r3"},"budget":%d}`, workload, budget)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/runs", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("POST /v1/runs %s: %d: %s", body, rec.Code, rec.Body)
		}
	}

	// Warm every workload's preparation and frozen memory image, which
	// the Lab keeps for the life of the process by design.
	all := workloads.All()
	for _, w := range all {
		post(w.Name, 1_000)
	}

	const perWorkload = 20
	before := liveHeap()
	cells := 0
	for b := 1; b <= perWorkload; b++ {
		for _, w := range all {
			post(w.Name, 1_000+b)
			cells++
		}
	}
	after := liveHeap()
	runtime.KeepAlive(s) // the server (and its Lab) must be live at both readings
	if cells < 500 {
		t.Fatalf("only %d cells pushed, want at least 500", cells)
	}

	growth := int64(after) - int64(before)
	perCell := growth / int64(cells)
	t.Logf("live heap %d -> %d bytes over %d cells: %d bytes/cell", before, after, cells, perCell)
	if perCell >= 64<<10 {
		t.Fatalf("live heap grew %d bytes per finished cell, want < 64 KiB: finished runs are pinning their machines", perCell)
	}
}
