package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"os"
	"slices"
	"time"
)

// span is one call into a layer, recorded by the replay around the
// layer's public function. Spans of one replayed request share req;
// parent is the index of the enclosing span, -1 for the request's root.
type span struct {
	name       string
	req        int32
	parent     int32
	start, end int64 // nanoseconds since the tracer's origin
}

// tracer records spans in memory for a single-threaded replay. A tracer
// that is off records nothing, so the same replay code runs with spans
// on and off and the difference is the tracing overhead.
type tracer struct {
	on     bool
	origin time.Time
	spans  []span
	stack  []int32
	req    int32
}

func newTracer(on bool) *tracer { return &tracer{on: on, origin: time.Now()} }

// request starts the spans of the next replayed request.
func (t *tracer) request() { t.req++ }

// begin opens a span nested in the innermost open one and returns its
// handle for end.
func (t *tracer) begin(name string) int32 {
	if !t.on {
		return -1
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, req: t.req, parent: parent, start: t.now()})
	t.stack = append(t.stack, id)
	return id
}

// end closes the span begin returned; spans close innermost first.
func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	t.spans[id].end = t.now()
	t.stack = t.stack[:len(t.stack)-1]
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Children may overlap one
// another (a parallel fan-out); the covered part is the union of their
// intervals, clipped to the parent's.
func selfTimes(spans []span) []int64 {
	kids := make([][]int32, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	var iv [][2]int64
	for i, s := range spans {
		iv = iv[:0]
		for _, c := range kids[i] {
			lo, hi := max(spans[c].start, s.start), min(spans[c].end, s.end)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
		var covered, reach int64
		for _, in := range iv {
			lo := max(in[0], reach)
			if in[1] > lo {
				covered += in[1] - lo
			}
			reach = max(reach, in[1])
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// spanStats aggregates the spans of one name.
type spanStats struct {
	calls int
	self  int64     // summed self time, ns
	durs  []float64 // per-call durations, µs, sorted
}

// aggregate groups spans by name.
func aggregate(spans []span) map[string]*spanStats {
	self := selfTimes(spans)
	out := map[string]*spanStats{}
	for i, s := range spans {
		a := out[s.name]
		if a == nil {
			a = &spanStats{}
			out[s.name] = a
		}
		a.calls++
		a.self += self[i]
		a.durs = append(a.durs, float64(s.end-s.start)/1e3)
	}
	for _, a := range out {
		slices.Sort(a.durs)
	}
	return out
}

// traceEvent is one complete event ("ph":"X") of the Chrome trace-event
// format, which chrome://tracing and Perfetto load.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeTrace writes spans as a trace-event JSON file.
func writeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	w.WriteString(`{"traceEvents":[`)
	for i, s := range spans {
		if i > 0 {
			w.WriteByte(',')
		}
		err = enc.Encode(traceEvent{
			Name: s.name, Ph: "X", PID: 1, TID: 1,
			TS:   float64(s.start) / 1e3,
			Dur:  float64(s.end-s.start) / 1e3,
			Args: map[string]any{"req": s.req, "parent": s.parent},
		})
		if err != nil {
			f.Close()
			return err
		}
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
