package main

import (
	"encoding/json"
	"os"
	"slices"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one request share
// Req (the request's schedule id; -1 for work outside any request) and
// form a tree through Parent (0 = root). Times are offsets from the
// trace's epoch.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Req    int           `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	// Replay marks a span timed by calling the layer again with the
	// request's inputs after the load phase. It is laid out back to back
	// with its replayed siblings from its parent's start, so a parent's
	// self time subtracts it like a live child.
	Replay bool `json:"replay,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory; write saves them when the run ends.
// The zero value is not usable; a nil *tracer records nothing, which is
// how untraced runs skip tracing at no cost.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	// replayEnd is where each parent's next replayed child starts.
	replayEnd map[int]time.Duration
}

func newTracer(epoch time.Time) *tracer {
	return &tracer{epoch: epoch, replayEnd: make(map[int]time.Duration)}
}

// add records a live span over [start, end) and returns its id.
func (t *tracer) add(parent, req int, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch)})
	return id
}

// replay records a replayed child of parent lasting d, placed right after
// the parent's previously replayed children, and returns its id.
func (t *tracer) replay(parent int, name string, d time.Duration) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent-1]
	at, ok := t.replayEnd[parent]
	if !ok {
		at = p.Start
	}
	t.replayEnd[parent] = at + d
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: p.Req, Name: name,
		Start: at, End: at + d, Replay: true})
	return id
}

// get returns the span with the given id.
func (t *tracer) get(id int) span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1]
}

// children returns the spans whose parent is id.
func (t *tracer) children(id int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Parent == id {
			out = append(out, s)
		}
	}
	return out
}

// selfTime of id: see selfTime.
func (t *tracer) selfTime(id int) time.Duration {
	return selfTime(t.get(id), t.children(id))
}

// write saves every span as one JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTime is a span's duration minus the part of its interval that its
// children cover. Children may overlap each other (parallel scatter legs)
// and may stick out of the parent; only the union of their intervals,
// clipped to the parent, is subtracted, so overlapping work is not
// counted twice and the result is never negative.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	slices.SortFunc(ivs, func(a, b iv) int {
		switch {
		case a.lo < b.lo:
			return -1
		case a.lo > b.lo:
			return 1
		}
		return 0
	})
	var covered time.Duration
	var curLo, curHi time.Duration
	open := false
	for _, v := range ivs {
		if open && v.lo <= curHi {
			curHi = max(curHi, v.hi)
			continue
		}
		if open {
			covered += curHi - curLo
		}
		curLo, curHi, open = v.lo, v.hi, true
	}
	if open {
		covered += curHi - curLo
	}
	return parent.dur() - covered
}
