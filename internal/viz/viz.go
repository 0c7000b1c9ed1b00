// Package viz renders the small set of plot shapes the study's figures
// use — horizontal bars, CDF line plots, heat maps and violin-style
// distribution strips — as fixed-width ASCII, so cmd/campaign's output
// reads like the paper's figures in a terminal.
package viz

import (
	"fmt"
	"math"
	"strings"
)

// Bar renders one labeled horizontal bar scaled to maxValue over width
// cells, e.g. "OPT  ███████▌       48.8%".
func Bar(label string, value, maxValue float64, width int, suffix string) string {
	if width <= 0 {
		width = 20
	}
	frac := 0.0
	if maxValue > 0 {
		frac = value / maxValue
	}
	frac = math.Max(0, math.Min(1, frac))
	cells := frac * float64(width)
	full := int(cells)
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s", label)
	b.WriteString(strings.Repeat("█", full))
	if full < width && cells-float64(full) >= 0.5 {
		b.WriteString("▌")
		full++
	}
	b.WriteString(strings.Repeat(" ", width-full))
	b.WriteString(" ")
	b.WriteString(suffix)
	return b.String()
}

// CDF renders an empirical CDF as an height×width character grid with
// axis annotations. Values are sorted internally.
func CDF(values []float64, width, height int, unit string) []string {
	if len(values) == 0 || width <= 0 || height <= 0 {
		return nil
	}
	sorted := append([]float64(nil), values...)
	for i := range sorted {
		for j := i + 1; j < len(sorted); j++ {
			if sorted[j] < sorted[i] {
				sorted[i], sorted[j] = sorted[j], sorted[i]
			}
		}
	}
	lo, hi := sorted[0], sorted[len(sorted)-1]
	if hi <= lo {
		hi = lo + 1 // flat series: widen the range to avoid dividing by zero
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for col := 0; col < width; col++ {
		x := lo + (hi-lo)*float64(col)/float64(width-1)
		// P(X <= x)
		n := 0
		for _, v := range sorted {
			if v <= x {
				n++
			}
		}
		p := float64(n) / float64(len(sorted))
		row := height - 1 - int(p*float64(height-1)+0.5)
		grid[row][col] = '*'
	}
	out := make([]string, 0, height+1)
	for r, row := range grid {
		p := 100 * float64(height-1-r) / float64(height-1)
		out = append(out, fmt.Sprintf("%4.0f%% |%s", p, string(row)))
	}
	out = append(out, fmt.Sprintf("      +%s", strings.Repeat("-", width)))
	out = append(out, fmt.Sprintf("       %-12s%s%12s",
		fmt.Sprintf("%.1f%s", lo, unit), strings.Repeat(" ", maxInt(0, width-24)),
		fmt.Sprintf("%.1f%s", hi, unit)))
	return out
}

// Heatmap renders a rows×cols matrix of values in [0, 1] using a
// five-level shade ramp, matching the paper's Fig. 20 probability grid.
func Heatmap(values []float64, rows, cols int) []string {
	ramp := []rune{'·', '░', '▒', '▓', '█'}
	out := make([]string, 0, rows)
	for r := 0; r < rows; r++ {
		var b strings.Builder
		for c := 0; c < cols; c++ {
			i := r*cols + c
			v := 0.0
			if i < len(values) {
				v = math.Max(0, math.Min(1, values[i]))
			}
			level := int(v*float64(len(ramp)-1) + 1e-9)
			if v > 0 && level == 0 {
				level = 1 // nonzero cells are visibly distinct from zero
			}
			b.WriteRune(ramp[level])
			b.WriteRune(' ')
		}
		out = append(out, b.String())
	}
	return out
}

// Violin renders a five-number summary as a one-line distribution strip
// on a shared [lo, hi] axis: "  |----[==M==]------|".
func Violin(label string, p10, p25, med, p75, p90, lo, hi float64, width int) string {
	if width <= 10 {
		width = 40
	}
	if hi <= lo {
		hi = lo + 1
	}
	pos := func(v float64) int {
		f := (v - lo) / (hi - lo)
		f = math.Max(0, math.Min(1, f))
		return int(f * float64(width-1))
	}
	row := []byte(strings.Repeat(" ", width))
	for i := pos(p10); i <= pos(p90) && i < width; i++ {
		row[i] = '-'
	}
	for i := pos(p25); i <= pos(p75) && i < width; i++ {
		row[i] = '='
	}
	if m := pos(med); m < width {
		row[m] = 'M'
	}
	return fmt.Sprintf("%-6s|%s|", label, string(row))
}

// maxInt is the integer max.
func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
