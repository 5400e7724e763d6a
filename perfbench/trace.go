package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one recorded interval around a call into a layer. Times are
// offsets from the tracer's epoch. Parent 0 means a root span; Req is
// the serve request id, or 0 outside serve requests.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Req    int64         `json:"req,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so timed code paths carry the
// same calls with and without tracing.
type tracer struct {
	epoch time.Time
	next  atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// openSpan is a span that has started but not ended.
type openSpan struct {
	t          *tracer
	id, parent int64
	req        int64
	name       string
	begun      time.Time
}

// start opens a span; its ID is known at once, so children can name it
// as their parent before it ends.
func (t *tracer) start(name string, parent, req int64) openSpan {
	return openSpan{t: t, id: t.reserve(), parent: parent, req: req, name: name, begun: time.Now()}
}

// end closes the span, keeps it, and returns it.
func (o openSpan) end() span {
	return o.t.keep(o.id, o.parent, o.req, o.name, o.begun, time.Now())
}

// reserve allocates a span ID. start calls it; so does a caller whose
// span does not begin "now" (an open-loop request begins at its
// scheduled time) and is recorded later with keep.
func (t *tracer) reserve() int64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

// keep records a span with explicit times under a reserved ID.
func (t *tracer) keep(id, parent, req int64, name string, start, end time.Time) span {
	if t == nil {
		return span{}
	}
	s := span{ID: id, Parent: parent, Name: name, Req: req, Start: start.Sub(t.epoch), End: end.Sub(t.epoch)}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// all returns the spans recorded so far, ordered by start.
func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// named returns the recorded spans with one name.
func (t *tracer) named(name string) []span {
	var out []span
	for _, s := range t.all() {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.all() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTime is a span's duration minus the part of its interval that its
// children cover. Children may overlap one another (cells run
// concurrently), so the covered part is the length of the union of the
// children's intervals, clipped to the parent.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a <= cur.b:
			cur.b = max(cur.b, v.b)
		default:
			covered += cur.b - cur.a
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.b - cur.a
	}
	return parent.dur() - covered
}

// childrenOf returns the spans whose parent is id.
func childrenOf(spans []span, id int64) []span {
	var out []span
	for _, s := range spans {
		if s.Parent == id {
			out = append(out, s)
		}
	}
	return out
}

type spanKey struct{}

// withParent carries the enclosing span's ID to the layer wrappers,
// which the layers call with the context they were given.
func withParent(ctx context.Context, id int64) context.Context {
	return context.WithValue(ctx, spanKey{}, id)
}

func parentOf(ctx context.Context) int64 {
	id, _ := ctx.Value(spanKey{}).(int64)
	return id
}

// traceIf returns a tracer in trace mode and nil otherwise.
func traceIf(on bool) *tracer {
	if on {
		return newTracer()
	}
	return nil
}
