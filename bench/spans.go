package main

import (
	"encoding/json"
	"os"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around the layer's public entry point. Name is "<module>.<call>";
// Op is the index of the unit of work the call belongs to (-1 for
// calls made once per pass, such as deploy.Build or checkpoint.Open).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Alloc  uint64 `json:"alloc_bytes"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced mode: every method is a no-op, so one pass function
// serves both the traced and the untraced serial pass.
type tracer struct {
	epoch  time.Time
	spans  []span
	sample []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
}

// start opens a span under parent (-1 for a root) and returns its id.
func (t *tracer) start(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Op: op, Alloc: t.allocs()})
	t.spans[id].Start = t.now()
	return id
}

// end closes the span; its Alloc becomes the bytes allocated inside it.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := t.now()
	s := &t.spans[id]
	s.End = now
	s.Alloc = t.allocs() - s.Alloc
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) allocs() uint64 {
	metrics.Read(t.sample)
	return t.sample[0].Value.Uint64()
}

// writeFile dumps every span as one JSON array.
func (t *tracer) writeFile(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its children, with overlapping children
// merged so concurrent children are not subtracted twice. Spans must
// be indexed by ID.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	self := make([]int64, len(spans))
	for _, s := range spans {
		type interval struct{ lo, hi int64 }
		var iv []interval
		for _, c := range children[s.ID] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if lo < hi {
				iv = append(iv, interval{lo, hi})
			}
		}
		sort.Slice(iv, func(i, j int) bool { return iv[i].lo < iv[j].lo })
		var covered int64
		curLo, curHi := int64(0), int64(-1)
		for _, x := range iv {
			if x.lo > curHi {
				if curHi > curLo {
					covered += curHi - curLo
				}
				curLo, curHi = x.lo, x.hi
				continue
			}
			curHi = max(curHi, x.hi)
		}
		if curHi > curLo {
			covered += curHi - curLo
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// layerCost is the traced cost of one span name across a run.
type layerCost struct {
	self  time.Duration
	total time.Duration // inclusive of children
	alloc uint64
	calls int
}

// costs aggregates self time, inclusive time and allocation per span
// name.
func costs(spans []span) map[string]*layerCost {
	self := selfTimes(spans)
	out := map[string]*layerCost{}
	for _, s := range spans {
		c := out[s.Name]
		if c == nil {
			c = &layerCost{}
			out[s.Name] = c
		}
		c.self += time.Duration(self[s.ID])
		c.total += time.Duration(s.End - s.Start)
		c.alloc += s.Alloc
		c.calls++
	}
	return out
}

// isBenchSpan reports whether a span belongs to the benchmark itself
// rather than to a layer of the program.
func isBenchSpan(name string) bool { return strings.HasPrefix(name, "bench.") }
