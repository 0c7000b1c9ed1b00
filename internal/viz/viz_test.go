package viz

import (
	"strings"
	"testing"
)

func TestBarScaling(t *testing.T) {
	full := Bar("x", 10, 10, 10, "100%")
	if !strings.Contains(full, strings.Repeat("█", 10)) {
		t.Errorf("full bar wrong: %q", full)
	}
	half := Bar("y", 5, 10, 10, "50%")
	if !strings.Contains(half, strings.Repeat("█", 5)) || strings.Contains(half, strings.Repeat("█", 6)) {
		t.Errorf("half bar wrong: %q", half)
	}
	empty := Bar("z", 0, 10, 10, "0%")
	if strings.Contains(empty, "█") {
		t.Errorf("empty bar wrong: %q", empty)
	}
	// Value above scale clamps, never panics or overflows the width.
	over := Bar("w", 20, 10, 10, "")
	if strings.Count(over, "█") != 10 {
		t.Errorf("overflow bar wrong: %q", over)
	}
	if got := Bar("q", 1, 0, 0, ""); !strings.HasPrefix(got, "q") {
		t.Errorf("degenerate bar: %q", got)
	}
}

func TestBarHalfCell(t *testing.T) {
	b := Bar("h", 55, 100, 10, "")
	if !strings.Contains(b, "█████▌") {
		t.Errorf("half-cell rendering: %q", b)
	}
}

func TestCDFShape(t *testing.T) {
	values := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	lines := CDF(values, 30, 8, "s")
	if len(lines) != 10 { // 8 rows + axis + labels
		t.Fatalf("lines = %d", len(lines))
	}
	if !strings.Contains(lines[0], "100%") {
		t.Errorf("top row label: %q", lines[0])
	}
	stars := 0
	for _, l := range lines[:8] {
		stars += strings.Count(l, "*")
	}
	if stars != 30 {
		t.Errorf("one point per column expected, got %d", stars)
	}
	if !strings.Contains(lines[9], "1.0s") || !strings.Contains(lines[9], "10.0s") {
		t.Errorf("axis labels: %q", lines[9])
	}
	if CDF(nil, 10, 5, "") != nil {
		t.Error("empty input should give nil")
	}
}

func TestCDFConstantInput(t *testing.T) {
	lines := CDF([]float64{5, 5, 5}, 10, 4, "")
	if len(lines) == 0 {
		t.Fatal("constant input should still render")
	}
}

func TestHeatmap(t *testing.T) {
	lines := Heatmap([]float64{0, 0.3, 0.6, 1}, 2, 2)
	if len(lines) != 2 {
		t.Fatalf("rows = %d", len(lines))
	}
	if !strings.Contains(lines[0], "·") {
		t.Errorf("zero cell should be ·: %q", lines[0])
	}
	if !strings.Contains(lines[1], "█") {
		t.Errorf("full cell should be █: %q", lines[1])
	}
	// Nonzero must never render as the zero glyph.
	tiny := Heatmap([]float64{0.01}, 1, 1)
	if strings.Contains(tiny[0], "·") {
		t.Errorf("nonzero cell rendered as zero: %q", tiny[0])
	}
	// Short value slices render as zeros, no panic.
	short := Heatmap([]float64{1}, 2, 2)
	if len(short) != 2 {
		t.Error("short input should still produce the grid")
	}
}

func TestViolin(t *testing.T) {
	v := Violin("OPT", 10, 20, 30, 40, 50, 0, 60, 30)
	if !strings.Contains(v, "M") || !strings.Contains(v, "=") || !strings.Contains(v, "-") {
		t.Errorf("violin missing marks: %q", v)
	}
	// Median sits between the quartile marks.
	mIdx := strings.Index(v, "M")
	if mIdx <= strings.Index(v, "=") {
		t.Errorf("median placement wrong: %q", v)
	}
	// Degenerate range must not panic.
	_ = Violin("x", 1, 1, 1, 1, 1, 5, 5, 20)
	_ = Violin("x", 1, 2, 3, 4, 5, 0, 10, 5)
}
