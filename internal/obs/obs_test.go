package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	r.Add("a", 2)
	r.Add("a", 3)
	r.Set("g", 7)
	r.Set("g", 9)
	if got := r.Counter("a").Value(); got != 5 {
		t.Errorf("counter a = %d, want 5", got)
	}
	if got := r.Gauge("g").Value(); got != 9 {
		t.Errorf("gauge g = %d, want 9", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Add("n", 1)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("n").Value(); got != 8000 {
		t.Errorf("counter n = %d, want 8000", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	// ".count" suffix selects SizeBuckets (first bound 64).
	r.Observe("events.count", 10)
	r.Observe("events.count", 100)
	r.Observe("events.count", 1e9) // overflow
	s := r.Snapshot()
	if len(s.Histograms) != 1 {
		t.Fatalf("histograms = %d, want 1", len(s.Histograms))
	}
	h := s.Histograms[0]
	if h.Samples != 3 {
		t.Errorf("samples = %d, want 3", h.Samples)
	}
	if want := 10 + 100 + 1e9; h.Sum != float64(want) {
		t.Errorf("sum = %v, want %v", h.Sum, want)
	}
	if len(h.Buckets) != len(SizeBuckets)+1 {
		t.Fatalf("buckets = %d, want %d", len(h.Buckets), len(SizeBuckets)+1)
	}
	// Cumulative counts: first bucket (≤64) holds 1, last (+Inf) all 3.
	if h.Buckets[0].Count != 1 {
		t.Errorf("bucket[0] = %d, want 1", h.Buckets[0].Count)
	}
	last := h.Buckets[len(h.Buckets)-1]
	if last.Le != "+Inf" || last.Count != 3 {
		t.Errorf("last bucket = %+v, want {+Inf 3}", last)
	}
	// Cumulative monotonicity.
	for i := 1; i < len(h.Buckets); i++ {
		if h.Buckets[i].Count < h.Buckets[i-1].Count {
			t.Errorf("bucket counts not cumulative at %d: %+v", i, h.Buckets)
		}
	}
}

func TestBucketsFor(t *testing.T) {
	cases := []struct {
		name string
		want []float64
	}{
		{"stage.parse.seconds", DurationBuckets},
		{"capture.bytes", SizeBuckets},
		{"events.count", SizeBuckets},
		{"retries", DefaultBuckets},
	}
	for _, c := range cases {
		if got := bucketsFor(c.name); &got[0] != &c.want[0] {
			t.Errorf("bucketsFor(%q) picked the wrong set", c.name)
		}
	}
}

func TestStageSpanUsesInjectedClock(t *testing.T) {
	r := NewRegistry()
	now := time.Unix(0, 0)
	r.SetClock(func() time.Time { return now })
	end := r.StartStage(StageParse)
	now = now.Add(250 * time.Millisecond)
	end()
	s := r.Snapshot()
	if len(s.Histograms) != 1 || s.Histograms[0].Name != "stage.parse.seconds" {
		t.Fatalf("snapshot histograms = %+v, want stage.parse.seconds", s.Histograms)
	}
	if got := s.Histograms[0].Sum; got != 0.25 {
		t.Errorf("span sum = %v, want 0.25", got)
	}
	if got := r.Counter("stage.parse.spans").Value(); got != 1 {
		t.Errorf("span count = %d, want 1", got)
	}
}

func TestStageStrings(t *testing.T) {
	want := map[Stage]string{
		StageSimulate: "simulate",
		StageParse:    "parse",
	}
	for s, name := range want {
		if s.String() != name {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), name)
		}
	}
	if got := Stage(200).String(); got != "Stage(200)" {
		t.Errorf("out-of-range stage = %q", got)
	}
}

// TestSnapshotStable: identical observation sequences produce
// byte-identical JSON, regardless of registration order.
func TestSnapshotStable(t *testing.T) {
	build := func(order []string) []byte {
		r := NewRegistry()
		for _, n := range order {
			r.Add(n, 1)
		}
		r.Observe("x.seconds", 0.5)
		r.Set("workers", 4)
		var b bytes.Buffer
		if err := r.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	a := build([]string{"alpha", "beta", "gamma"})
	b := build([]string{"gamma", "alpha", "beta"})
	if !bytes.Equal(a, b) {
		t.Errorf("snapshots differ:\n%s\nvs\n%s", a, b)
	}
	if strings.Contains(string(a), "time") {
		t.Errorf("snapshot mentions time: %s", a)
	}
}

// TestRegistryImplementsCollector pins the interface.
var _ Collector = (*Registry)(nil)
