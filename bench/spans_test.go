package main

import (
	"reflect"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "bench.pass", Start: 0, End: 100},
		// Two sequential children cover 40 of the pass.
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "b", Start: 50, End: 70},
		// A grandchild is subtracted from its parent only.
		{ID: 3, Parent: 2, Name: "c", Start: 55, End: 60},
	}
	want := []int64{60, 20, 15, 5}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestSelfTimesMergesOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 40},
		{ID: 2, Parent: 0, Start: 30, End: 60},  // overlaps 1 by 10
		{ID: 3, Parent: 0, Start: 35, End: 45},  // inside 1 ∪ 2
		{ID: 4, Parent: 0, Start: 90, End: 120}, // runs past its parent: clipped to 90..100
	}
	// Covered: 10..60 and 90..100, 60 in all.
	if got := selfTimes(spans)[0]; got != 40 {
		t.Errorf("self time with overlapping children = %d, want 40", got)
	}
}

func TestCostsAggregateByName(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "bench.op", Start: 0, End: 10},
		{ID: 1, Parent: 0, Name: "sig.ParseObserved", Start: 1, End: 5, Alloc: 100},
		{ID: 2, Parent: -1, Name: "bench.op", Start: 20, End: 30},
		{ID: 3, Parent: 2, Name: "sig.ParseObserved", Start: 21, End: 28, Alloc: 50},
	}
	c := costs(spans)
	if p := c["sig.ParseObserved"]; p.self != 11 || p.total != 11 || p.alloc != 150 || p.calls != 2 {
		t.Errorf("parse cost = %+v, want self 11, total 11, alloc 150, calls 2", *p)
	}
	if op := c["bench.op"]; op.self != 9 || op.total != 20 {
		t.Errorf("op cost = %+v, want self 9, total 20", *op)
	}
}

func TestNilTracerIsNoop(t *testing.T) {
	var tr *tracer
	id := tr.start("uesim.RunToContext", -1, 0)
	tr.end(id)
	if id != -1 {
		t.Errorf("nil tracer returned span id %d, want -1", id)
	}
}

func TestTracerRecordsNestedSpans(t *testing.T) {
	tr := newTracer()
	root := tr.start("bench.pass", -1, -1)
	child := tr.start("trace.Extract", root, 3)
	_ = make([]byte, 1<<16)
	tr.end(child)
	tr.end(root)
	if len(tr.spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(tr.spans))
	}
	r, c := tr.spans[root], tr.spans[child]
	if c.Parent != root || c.Op != 3 || c.Name != "trace.Extract" {
		t.Errorf("child span = %+v", c)
	}
	if c.Start < r.Start || c.End > r.End || c.End < c.Start {
		t.Errorf("child %v..%v not inside root %v..%v", c.Start, c.End, r.Start, r.End)
	}
}
