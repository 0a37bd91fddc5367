package main

import (
	"encoding/json"
	"io"
	"sort"
	"time"
)

// span is one timed interval around a call into a layer.
type span struct {
	name   string
	cell   int // the simulation cell or STM worker the span belongs to
	parent int // index of the enclosing span, -1 for a root
	start  time.Duration
	end    time.Duration
}

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine: concurrent workers time into their own slices and hand the
// samples over with add once they have stopped.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int // stack of spans begun and not yet ended
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name string, cell int) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, cell: cell, parent: parent, start: time.Since(t.epoch)})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	n := len(t.open)
	if n == 0 || t.open[n-1] != id {
		panic("bench: spans ended out of order")
	}
	t.open = t.open[:n-1]
	t.spans[id].end = time.Since(t.epoch)
}

// do records fn as one span and returns its duration. A nil tracer only
// times fn.
func (t *tracer) do(name string, cell int, fn func()) time.Duration {
	if t == nil {
		t0 := time.Now()
		fn()
		return time.Since(t0)
	}
	id := t.begin(name, cell)
	fn()
	t.end(id)
	return t.spans[id].dur()
}

// add records a finished span measured elsewhere (a worker's sample).
func (t *tracer) add(name string, cell, parent int, start, end time.Time) {
	t.spans = append(t.spans, span{name: name, cell: cell, parent: parent,
		start: start.Sub(t.epoch), end: end.Sub(t.epoch)})
}

func (s span) dur() time.Duration { return s.end - s.start }

// selfRow is one line of the self-time table.
type selfRow struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// selfTimes sums, per span name, the spans' durations and their self
// times: a span's duration minus the part of it its direct children cover.
// Children of one parent may overlap (STM workers run side by side), so
// covered time is the union of the child intervals.
func (t *tracer) selfTimes() []selfRow {
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	rows := map[string]*selfRow{}
	for i, s := range t.spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].start < t.spans[kids[b]].start })
		var covered, edge time.Duration
		edge = s.start
		for _, k := range kids {
			c := t.spans[k]
			from, to := c.start, c.end
			if from < edge {
				from = edge
			}
			if to > s.end {
				to = s.end
			}
			if to > from {
				covered += to - from
				edge = to
			}
		}
		r := rows[s.name]
		if r == nil {
			r = &selfRow{Name: s.name}
			rows[s.name] = r
		}
		r.Count++
		r.TotalMs += ms(s.dur())
		r.SelfMs += ms(s.dur() - covered)
	}
	out := make([]selfRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].SelfMs > out[b].SelfMs })
	return out
}

// total sums the durations of the spans with this name.
func (t *tracer) total(name string) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.name == name {
			d += s.dur()
		}
	}
	return d
}

// writeChrome writes the spans as Chrome trace_event JSON (complete
// events, microseconds), one track per cell; Perfetto and chrome://tracing
// open it.
func (t *tracer) writeChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{Name: s.name, Ph: "X", Ts: us(s.start), Dur: us(s.dur()),
			Pid: 1, Tid: s.cell, Args: map[string]int{"span": i, "parent": s.parent}}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
