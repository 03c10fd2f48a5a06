package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The benchmark's tracer. Spans are recorded from the benchmark's own code
// around its calls into each layer's public functions; nothing inside the
// program is instrumented. Spans stay in memory and are written out when
// the run ends.

// span is one timed call. Spans of one request, epoch or cycle share a
// trace ID, which is the ID of its root span.
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Trace  uint64 `json:"trace"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// root opens a span that starts a new trace. Like child, end and timed,
// it is a no-op on a nil tracer, so untraced runs share the traced code.
func (t *tracer) root(name string) span {
	if t == nil {
		return span{}
	}
	id := t.ids.Add(1)
	return span{Name: name, ID: id, Trace: id, Start: t.now()}
}

// child opens a span under parent.
func (t *tracer) child(name string, parent span) span {
	if t == nil {
		return span{}
	}
	return span{Name: name, ID: t.ids.Add(1), Parent: parent.ID, Trace: parent.Trace, Start: t.now()}
}

// end closes s and records it.
func (t *tracer) end(s span) {
	if t == nil {
		return
	}
	s.End = t.now()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed runs fn inside a child span of parent.
func (t *tracer) timed(name string, parent span, fn func()) {
	s := t.child(name, parent)
	fn()
	t.end(s)
}

// layerTime is the aggregate of every span with one name.
type layerTime struct {
	count     int
	dur, self int64 // summed nanoseconds
}

func (l layerTime) meanDur() float64  { return float64(l.dur) / float64(max(l.count, 1)) }
func (l layerTime) meanSelf() float64 { return float64(l.self) / float64(max(l.count, 1)) }

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the part of its interval that its children cover.
func (t *tracer) selfTimes() map[string]layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[uint64][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]layerTime)
	for _, s := range t.spans {
		lt := out[s.Name]
		lt.count++
		lt.dur += s.dur()
		lt.self += s.dur() - covered(s, kids[s.ID])
		out[s.Name] = lt
	}
	return out
}

// covered returns how much of parent's interval the children cover.
func covered(parent span, children []span) int64 {
	if len(children) == 0 {
		return 0
	}
	sort.Slice(children, func(i, j int) bool { return children[i].Start < children[j].Start })
	var total, curS, curE int64
	curS, curE = -1, -1
	for _, c := range children {
		s, e := max(c.Start, parent.Start), min(c.End, parent.End)
		if e <= s {
			continue
		}
		if s > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

// printSelfTimes prints the per-name self-time table of the run.
func (t *tracer) printSelfTimes(r *report) {
	st := t.selfTimes()
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	r.note("self time by span: name count mean_dur_us mean_self_us total_self_ms")
	for _, n := range names {
		l := st[n]
		r.note("  %-22s %8d %12.2f %12.2f %12.1f", n, l.count, l.meanDur()/1e3, l.meanSelf()/1e3, float64(l.self)/1e6)
	}
}

// write saves the spans as JSON lines under dir.
func (t *tracer) write(dir, name string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// finishTrace prints the self-time table, reports the span count and
// writes the spans file of a traced run.
func finishTrace(o options, r *report, t *tracer) error {
	t.printSelfTimes(r)
	t.mu.Lock()
	n := len(t.spans)
	t.mu.Unlock()
	r.set("trace.spans", float64(n), "count")
	name := fmt.Sprintf("spans-%s-%d.jsonl", o.workload, o.seed)
	if err := t.write(o.outDir, name); err != nil {
		return err
	}
	r.note("spans written to %s", filepath.Join(o.outDir, name))
	return nil
}
