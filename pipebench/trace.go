package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Name is "<layer>.<operation>";
// spans of one request or one build share Req.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Req    int64  `json:"req"`
}

func (s span) layer() string {
	layer, _, _ := strings.Cut(s.Name, ".")
	return layer
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil compare per call.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span // spans[i].ID == i+1
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, ID: id, Parent: parent, Req: req})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	s := &t.spans[id-1]
	s.End = max(now, s.Start+1) // keep every span non-empty for selfTimes
	t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(name string, parent int, req int64, fn func()) {
	id := t.begin(name, parent, req)
	fn()
	t.end(id)
}

// snapshot copies the closed spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// write stores every closed span as JSON.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// byName returns the durations of the spans with the given name.
func byName(spans []span, name string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// selfTimes splits the wall time of the root span across layers. At each
// instant the time goes to the innermost open spans of the tree, shared
// equally when several run at once (parallel candidate evaluation); so the
// layer times of one root sum to its duration. A span's self time is its
// duration minus the part its open children cover.
func selfTimes(spans []span, root int) map[string]time.Duration {
	byID := make(map[int]span)
	children := make(map[int][]int)
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	var tree []span
	var walk func(id int)
	walk = func(id int) {
		s, ok := byID[id]
		if !ok {
			return
		}
		tree = append(tree, s)
		for _, c := range children[id] {
			walk(c)
		}
	}
	walk(root)

	type event struct {
		at   int64
		open bool
		span span
	}
	events := make([]event, 0, 2*len(tree))
	for _, s := range tree {
		events = append(events, event{s.Start, true, s}, event{s.End, false, s})
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].at != events[j].at {
			return events[i].at < events[j].at
		}
		return !events[i].open && events[j].open // close before open
	})
	open := make(map[int]span)
	openKids := make(map[int]int)
	out := make(map[string]time.Duration)
	prev := int64(0)
	for _, e := range events {
		if e.at > prev {
			var leaves []span
			for _, s := range open {
				if openKids[s.ID] == 0 {
					leaves = append(leaves, s)
				}
			}
			for _, s := range leaves {
				out[s.layer()] += time.Duration((e.at - prev) / int64(len(leaves)))
			}
		}
		prev = e.at
		if e.open {
			open[e.span.ID] = e.span
			openKids[e.span.Parent]++
		} else {
			delete(open, e.span.ID)
			openKids[e.span.Parent]--
		}
	}
	return out
}
