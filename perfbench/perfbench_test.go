package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"testing"
	"time"

	"r3dla/internal/lab"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

// The tail rule reports the highest percentile with at least ten samples
// beyond it, with that count.
func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n          int
		wantP      float64
		wantV      float64
		wantBeyond int
		ok         bool
	}{
		{n: 10000, wantP: 99.9, wantV: 9990, wantBeyond: 10, ok: true},
		{n: 2000, wantP: 99, wantV: 1980, wantBeyond: 20, ok: true},
		{n: 1000, wantP: 99, wantV: 990, wantBeyond: 10, ok: true},
		{n: 999, wantP: 95, wantV: 950, wantBeyond: 49, ok: true},
		{n: 20, wantP: 50, wantV: 10, wantBeyond: 10, ok: true},
		{n: 19, ok: false},
	} {
		p, v, beyond, ok := tailPercentile(seq(tc.n))
		if ok != tc.ok {
			t.Fatalf("n=%d: ok %v, want %v", tc.n, ok, tc.ok)
		}
		if !ok {
			continue
		}
		if p != tc.wantP || v != tc.wantV || beyond != tc.wantBeyond {
			t.Errorf("n=%d: got p%v = %v with %d beyond, want p%v = %v with %d beyond",
				tc.n, p, v, beyond, tc.wantP, tc.wantV, tc.wantBeyond)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median %v, want 2.5", got)
	}
}

// Self time subtracts the union of the children's intervals, so children
// that overlap each other are not subtracted twice, and the parts of a
// child outside its parent are not subtracted at all.
func TestSelfTimeOverlappingChildren(t *testing.T) {
	iv := func(a, b time.Duration) span { return span{Start: a, End: b} }
	parent := iv(0, 100)
	for _, tc := range []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"none", nil, 100},
		{"disjoint", []span{iv(10, 20), iv(30, 50)}, 70},
		{"overlapping", []span{iv(10, 40), iv(30, 60)}, 50},
		{"nested", []span{iv(10, 60), iv(20, 30), iv(25, 35)}, 50},
		{"identical", []span{iv(10, 60), iv(10, 60)}, 50},
		{"past the parent", []span{iv(90, 120), iv(-20, 5)}, 85},
		{"covering", []span{iv(-10, 40), iv(35, 200)}, 0},
		{"out of order", []span{iv(70, 80), iv(10, 30), iv(25, 75)}, 30},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self time %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestServeKeysDistinct(t *testing.T) {
	keys := serveKeys()
	seen := map[string]bool{}
	for _, k := range keys {
		cfg, err := k.Config.Config()
		if err != nil {
			t.Fatal(err)
		}
		rk := lab.RunKey(k.Workload, cfg, k.Budget)
		if seen[rk] {
			t.Errorf("duplicate key %s", rk)
		}
		seen[rk] = true
	}
	if len(keys) != len(serveWorkloads)*18 || len(keys) <= serveStoreMax {
		t.Fatalf("%d keys; want %d, more than the store bound %d", len(keys), len(serveWorkloads)*18, serveStoreMax)
	}
}

// The same seed gives the same schedule; the schedule sends each key not
// warmed up exactly once as a first request, twins every twinEvery-th,
// and repeats only keys warmed up or first sent repeatAge earlier.
func TestScheduleSameSeed(t *testing.T) {
	const nKeys, warm, rate = 144, 16, 200.0
	length := 10 * time.Second
	order, sched, err := makeSchedule(7, nKeys, warm, rate, length)
	if err != nil {
		t.Fatal(err)
	}
	order2, sched2, _ := makeSchedule(7, nKeys, warm, rate, length)
	if !reflect.DeepEqual(order, order2) || !reflect.DeepEqual(sched, sched2) {
		t.Fatal("same seed gave different schedules")
	}
	_, other, _ := makeSchedule(8, nKeys, warm, rate, length)
	if reflect.DeepEqual(sched, other) {
		t.Fatal("different seeds gave the same schedule")
	}

	cold := nKeys - warm
	twins := (cold + twinEvery - 1) / twinEvery
	if want := int(rate*length.Seconds()) + twins; len(sched) != want {
		t.Fatalf("%d arrivals, want %d", len(sched), want)
	}
	firstAt := map[int]time.Duration{}
	for _, k := range order[:warm] {
		firstAt[k] = -time.Hour
	}
	coldSeen := map[int]int{}
	for i, a := range sched {
		if i > 0 && a.At < sched[i-1].At {
			t.Fatalf("arrival %d out of order", i)
		}
		if a.At < 0 || a.At >= length+twinGap {
			t.Fatalf("arrival %d at %v outside the schedule", i, a.At)
		}
		if a.Cold {
			if coldSeen[a.Key] == 0 {
				firstAt[a.Key] = a.At
			}
			coldSeen[a.Key]++
			continue
		}
		at, ok := firstAt[a.Key]
		if !ok || a.At-at < repeatAge {
			t.Fatalf("repeat of key %d at %v, first sent at %v (seen %v)", a.Key, a.At, at, ok)
		}
	}
	if len(coldSeen) != cold {
		t.Fatalf("%d keys sent cold, want %d", len(coldSeen), cold)
	}
	nTwins := 0
	for k, n := range coldSeen {
		if n > 2 {
			t.Fatalf("key %d sent cold %d times", k, n)
		}
		nTwins += n - 1
	}
	if nTwins != twins {
		t.Fatalf("%d twins, want %d", nTwins, twins)
	}
}

func TestScheduleTooShort(t *testing.T) {
	if _, _, err := makeSchedule(1, 144, 16, 200, time.Second); err == nil {
		t.Fatal("a one-second schedule cannot carry 128 first-time keys")
	}
}

// A 503 shed is a failed request and misses the latency limit, however
// fast it came back.
func TestShedCountsAsFailedAndLimitMiss(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(lab.PriorityHeader) == lab.PriorityBatch {
			http.Error(w, `{"error":"server at capacity"}`, http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte("{}\n"))
	}))
	defer srv.Close()
	c := &client{http: srv.Client(), base: srv.URL, bodies: [][]byte{[]byte(`{}`)}}
	ctx := context.Background()
	shed := c.post(ctx, 0, true, time.Now(), 1)
	okReq := c.post(ctx, 0, false, time.Now(), 2)
	if shed.status != http.StatusServiceUnavailable || shed.ok() {
		t.Fatalf("shed request: status %d ok %v", shed.status, shed.ok())
	}
	if !okReq.ok() {
		t.Fatalf("answered request: status %d err %v", okReq.status, okReq.err)
	}

	fail := 10 * time.Second
	tl := tallyRequests([]reqResult{shed, okReq}, time.Minute, fail)
	if tl.attempted != 2 || tl.failed != 1 || tl.good != 1 {
		t.Fatalf("tally %+v, want 2 attempted, 1 failed, 1 good", tl)
	}
	if tl.latMS[0] != ms(fail) || math.IsInf(tl.latMS[0], 0) {
		t.Fatalf("shed latency %v ms, want the failure latency %v ms", tl.latMS[0], ms(fail))
	}
	// A transport error is a failure too.
	tl = tallyRequests([]reqResult{{err: context.DeadlineExceeded, latency: time.Millisecond}}, time.Minute, fail)
	if tl.failed != 1 || tl.good != 0 {
		t.Fatalf("errored request tally %+v", tl)
	}
}

// The offered load weighs first-time keys against the cold capacity and
// the other arrivals against the hit capacity.
func TestOfferedLoad(t *testing.T) {
	c := capacity{coldRPS: 64, hitRPS: 2000}
	// 128 first-time keys in 20 s: 6.4/s, 0.1 of the cold capacity; the
	// other 193.6/s are 0.0968 of the hit capacity.
	if got, want := offeredLoad(c, 200, 128, 20*time.Second), 0.1+193.6/2000; math.Abs(got-want) > 1e-12 {
		t.Fatalf("load %v, want %v", got, want)
	}
}

// The metric lists the result line is built from are the ones
// BENCHMARK.json declares, in order and with their units.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		kind string
		json []struct{ Name, Unit string }
		code []metricSpec
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		var got []metricSpec
		for _, m := range tc.json {
			got = append(got, metricSpec{m.Name, m.Unit})
		}
		if !reflect.DeepEqual(got, tc.code) {
			t.Errorf("%s in BENCHMARK.json:\n%v\ncode:\n%v", tc.kind, got, tc.code)
		}
	}
}

// Every declared metric is in the result: a missing end-to-end metric
// is an error, a missing per-layer one reads 0 with 0 samples.
func TestDeclaredFillsBypassedLayers(t *testing.T) {
	if _, err := declared([]metric{{Name: "setup_s", Unit: "s"}}, false); err == nil {
		t.Error("missing end-to-end metrics were not an error")
	}
	if _, err := declared([]metric{{Name: "prep.s", Unit: "ms"}}, true); err == nil {
		t.Error("a wrong unit was not an error")
	}
	got, err := declared([]metric{{Name: "prep.s", Value: 1.5, Unit: "s", N: 3}, {Name: "extra", Unit: "s"}}, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(perLayer) {
		t.Fatalf("%d metrics, want %d", len(got), len(perLayer))
	}
	for i, m := range got {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("metric %d is %s (%s), want %s (%s)", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
		if want := 0.0; m.Name == "prep.s" {
			if m.Value != 1.5 || m.N != 3 {
				t.Errorf("prep.s = %v (n=%d), want the measured 1.5 (n=3)", m.Value, m.N)
			}
		} else if m.Value != want || m.N != 0 {
			t.Errorf("bypassed %s = %v (n=%d), want 0 (n=0)", m.Name, m.Value, m.N)
		}
	}
}
