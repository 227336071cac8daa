package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one request share Req (the batch's seq).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root
	Name   string `json:"name"`   // layer.operation
	Req    uint64 `json:"req"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run writes them out.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// span records a finished span and returns its ID.
func (t *tracer) span(name string, parent int, req uint64, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req,
		Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin))})
	return id
}

// begin opens a span now; calling the returned function closes it.
// Children opened in between may name the returned ID as parent.
func (t *tracer) begin(name string, parent int, req uint64) (id int, end func()) {
	start := int64(time.Since(t.origin))
	t.mu.Lock()
	id = len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: start})
	t.mu.Unlock()
	return id, func() {
		end := int64(time.Since(t.origin))
		t.mu.Lock()
		t.spans[id-1].End = end
		t.mu.Unlock()
	}
}

// layerTime is one span name's total and self time.
type layerTime struct {
	Name   string
	Count  int
	TotalS float64
	SelfS  float64
}

// selfTimes sums every span name's duration and its self time: the
// span minus the part of its interval its child spans cover.
func (t *tracer) selfTimes() []layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := map[string]*layerTime{}
	for _, s := range t.spans {
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			byName[s.Name] = lt
		}
		d := s.End - s.Start
		lt.Count++
		lt.TotalS += float64(d) / 1e9
		lt.SelfS += float64(d-covered(s, children[s.ID])) / 1e9
	}
	out := make([]layerTime, 0, len(byName))
	for _, lt := range byName {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, reach int64 = 0, parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, reach), min(k.End, parent.End)
		if hi > lo {
			total += hi - lo
			reach = hi
		}
	}
	return total
}

// write saves every span as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
