package main

import "testing"

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: "root", parent: -1, start: 0, end: 100},
		{name: "a", parent: 0, start: 10, end: 30},
		{name: "b", parent: 0, start: 20, end: 50}, // overlaps a
		{name: "a1", parent: 1, start: 12, end: 15},
		{name: "c", parent: 0, start: 90, end: 120}, // runs past its parent
		{name: "other", parent: -1, start: 200, end: 210},
	}
	// root's children cover [10, 50] and [90, 100]: 50 of its 100.
	want := []int64{50, 17, 30, 3, 30, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].name, got[i], want[i])
		}
	}
	agg := aggregate(spans)
	if a := agg["root"]; a.calls != 1 || a.self != 50 || a.durs[0] != 0.1 {
		t.Errorf("aggregate(root) = %+v", *a)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer(true)
	tr.request()
	root := tr.begin("root")
	a := tr.begin("a")
	tr.end(a)
	b := tr.begin("b")
	c := tr.begin("c")
	tr.end(c)
	tr.end(b)
	tr.end(root)
	tr.request()
	next := tr.begin("next")
	tr.end(next)
	parents := []int32{-1, 0, 0, 2, -1}
	reqs := []int32{1, 1, 1, 1, 2}
	if len(tr.spans) != len(parents) {
		t.Fatalf("%d spans, want %d", len(tr.spans), len(parents))
	}
	for i, s := range tr.spans {
		if s.parent != parents[i] || s.req != reqs[i] || s.end < s.start {
			t.Errorf("span %d (%s): parent %d req %d [%d, %d]; want parent %d req %d", i, s.name, s.parent, s.req, s.start, s.end, parents[i], reqs[i])
		}
	}
	off := newTracer(false)
	off.end(off.begin("x"))
	if len(off.spans) != 0 {
		t.Errorf("a tracer that is off recorded %d spans", len(off.spans))
	}
}
