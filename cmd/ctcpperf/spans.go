package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side of
// the call. Spans of one simulation share a Run id; Parent is 0 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: begin and end record nothing.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, run int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Run: run, Name: name,
		Start: time.Since(t.t0).Nanoseconds()})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = time.Since(t.t0).Nanoseconds()
}

// add records a span whose bounds were observed elsewhere (a child
// process's progress lines) and returns its id.
func (t *tracer) add(name string, parent, run int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Run: run, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return len(t.spans)
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children. Children may overlap one another (parallel
// work) and are clipped to the parent, so covered time is their union.
func selfTimes(spans []span) map[int]int64 {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.End - s.Start - covered(s.Start, s.End, kids[s.ID])
	}
	return out
}

// covered returns the length of the union of intervals within [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	var clipped [][2]int64
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b > a {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curA, curB int64
	for i, iv := range clipped {
		switch {
		case i == 0:
			curA, curB = iv[0], iv[1]
		case iv[0] > curB:
			total += curB - curA
			curA, curB = iv[0], iv[1]
		case iv[1] > curB:
			curB = iv[1]
		}
	}
	if len(clipped) > 0 {
		total += curB - curA
	}
	return total
}

// spanTotals aggregates spans by name.
type spanTotals struct {
	Count int
	Ns    int64 // summed durations
	Self  int64 // summed self times
	Durs  []float64
}

func totalsByName(spans []span) map[string]*spanTotals {
	self := selfTimes(spans)
	out := make(map[string]*spanTotals)
	for _, s := range spans {
		t := out[s.Name]
		if t == nil {
			t = &spanTotals{}
			out[s.Name] = t
		}
		t.Count++
		t.Ns += s.End - s.Start
		t.Self += self[s.ID]
		t.Durs = append(t.Durs, float64(s.End-s.Start))
	}
	return out
}

// writeSpans writes one JSON object per span, with its self time, to path.
func writeSpans(path string, spans []span) error {
	self := selfTimes(spans)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range spans {
		if err := enc.Encode(struct {
			span
			Self int64 `json:"self_ns"`
		}{s, self[s.ID]}); err != nil {
			return err
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
