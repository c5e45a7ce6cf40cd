package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Start and End are
// nanoseconds since the tracer was created; Parent is the ID of the span
// whose work caused this one, or 0 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths pass nil and pay one branch per call.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	nextID int
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// openSpan is a span that has started and not yet finished.
type openSpan struct {
	id, parent int
	start      time.Time
}

// begin starts a span under parent (0 for a root) and returns it; its ID is
// usable as the parent of spans begun before it finishes.
func (t *tracer) begin(parent int) openSpan {
	if t == nil {
		return openSpan{}
	}
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	return openSpan{id: id, parent: parent, start: time.Now()}
}

// finish ends s now and records it under name. The name is given at the end
// so a call can be classified by its outcome (a cache hit or a miss).
func (t *tracer) finish(s openSpan, name string) time.Duration {
	end := time.Now()
	if t == nil {
		return end.Sub(s.start)
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID:     s.id,
		Parent: s.parent,
		Name:   name,
		Start:  s.start.Sub(t.origin).Nanoseconds(),
		End:    end.Sub(t.origin).Nanoseconds(),
	})
	t.mu.Unlock()
	return end.Sub(s.start)
}

// record adds a span whose interval the caller measured itself, such as a
// request that became due before the goroutine serving it started.
func (t *tracer) record(name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	t.spans = append(t.spans, span{
		ID:     t.nextID,
		Parent: parent,
		Name:   name,
		Start:  start.Sub(t.origin).Nanoseconds(),
		End:    end.Sub(t.origin).Nanoseconds(),
	})
	return t.nextID
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	Count int
	// Self is the summed self time: each span's duration minus the part of
	// its interval covered by its children.
	Self time.Duration
	// Selfs holds each span's self time, for percentiles.
	Selfs []float64
}

// selfTimes returns the self-time totals per span name.
func (t *tracer) selfTimes() map[string]*layerTime {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]*layerTime)
	for _, s := range spans {
		self := s.End - s.Start - covered(s, children[s.ID])
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		lt.Count++
		lt.Self += time.Duration(self)
		lt.Selfs = append(lt.Selfs, float64(self))
	}
	return out
}

// covered returns how many nanoseconds of parent's interval the union of the
// children's intervals covers. Children may overlap when they ran on
// different goroutines.
func covered(parent span, children []span) int64 {
	if len(children) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	started := false
	for _, r := range iv {
		switch {
		case !started:
			curLo, curHi, started = r[0], r[1], true
		case r[0] > curHi:
			total += curHi - curLo
			curLo, curHi = r[0], r[1]
		case r[1] > curHi:
			curHi = r[1]
		}
	}
	if started {
		total += curHi - curLo
	}
	return total
}

// writeFile writes every recorded span to path as one JSON document.
func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	doc := struct {
		Spans []span `json:"spans"`
	}{t.spans}
	blob, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
