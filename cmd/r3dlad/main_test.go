package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"r3dla/internal/lab"
)

// TestJobEndpoints drives both streamed-job endpoints through the wiring
// r3dlad serves: the NDJSON stream is cell lines then exactly one
// terminal line, a budget over the cap is a 400 before the stream, and a
// server with no free admission slot answers 503.
func TestJobEndpoints(t *testing.T) {
	l, err := lab.New(lab.WithBudget(2000), lab.WithJobs(2))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newServer(l, lab.WithMaxBudget(10_000_000), lab.WithMaxInflight(1)))
	defer srv.Close()

	for _, tc := range []struct {
		name, path, body, overCap string
		cells                     int
	}{
		{
			name:    "sweeps",
			path:    "/v1/sweeps",
			body:    `{"workloads":["mcf"],"budget":2000,"axes":{"preset":["dla","r3"]}}`,
			overCap: `{"workloads":["mcf"],"budget":20000000}`,
			cells:   2,
		},
		{
			name:    "explore",
			path:    "/v1/explore",
			body:    `{"space":{"workloads":["mcf"],"budget":2000,"axes":{"preset":["dla","r3"]}},"strategy":"pareto","seed":4,"samples":2,"rounds":1}`,
			overCap: `{"space":{"workloads":["mcf"],"budget":20000000}}`,
			cells:   2,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			status, body := post(t, srv.URL+tc.path, tc.body)
			if status != http.StatusOK {
				t.Fatalf("status %d: %s", status, body)
			}
			lines := strings.Split(strings.TrimSuffix(body, "\n"), "\n")
			for i, raw := range lines {
				var line struct{ Event string }
				if err := json.Unmarshal([]byte(raw), &line); err != nil {
					t.Fatalf("bad NDJSON line %q: %v", raw, err)
				}
				want := "cell"
				if i == len(lines)-1 {
					want = "result"
				}
				if line.Event != want {
					t.Fatalf("line %d is %q, want %q: %s", i, line.Event, want, raw)
				}
			}
			if got := len(lines) - 1; got != tc.cells {
				t.Fatalf("%d cell lines, want %d", got, tc.cells)
			}

			status, body = post(t, srv.URL+tc.path, tc.overCap)
			if status != http.StatusBadRequest || !strings.Contains(body, "exceeds server cap") {
				t.Fatalf("over the cap: status %d body %s, want 400 naming the cap", status, body)
			}

			status, body = whileSlotHeld(t, srv.URL, func() (int, string) {
				return post(t, srv.URL+tc.path, tc.body)
			})
			if status != http.StatusServiceUnavailable || !strings.Contains(body, "server at capacity") {
				t.Fatalf("at capacity: status %d body %s, want 503", status, body)
			}
		})
	}
}

// post sends body and returns the status and the whole response body.
func post(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		sb.WriteString(sc.Text() + "\n")
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, sb.String()
}

// whileSlotHeld occupies the server's only admission slot with a long
// cancelable run, calls f, then cancels the run and waits until the slot
// is free again.
func whileSlotHeld(t *testing.T, url string, f func() (int, string)) (int, string) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/runs",
		strings.NewReader(`{"workload":"mcf","config":{"preset":"dla"},"budget":9000000}`))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	waitActive(t, url, 1)
	status, body := f()
	cancel()
	<-done
	waitActive(t, url, 0)
	return status, body
}

// waitActive polls /v1/healthz until the active count reaches want.
func waitActive(t *testing.T, url string, want int64) {
	t.Helper()
	for i := 0; ; i++ {
		resp, err := http.Get(url + "/v1/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var h lab.Health
		err = json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if h.Active == want {
			return
		}
		if i >= 500 {
			t.Fatalf("active stayed %d, want %d", h.Active, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
