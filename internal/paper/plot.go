package paper

import (
	"fmt"
	"math"
	"strings"
)

// asciiPlot renders series of (x, y) points on a character grid with
// axes and labels — enough to eyeball the shapes of Figures 2–6.
type asciiPlot struct {
	width, height  int
	xmin, xmax     float64
	ymin, ymax     float64
	xlabel, ylabel string
	title          string
	grid           [][]byte
}

func newASCIIPlot(title, xlabel, ylabel string, xmin, xmax, ymin, ymax float64) *asciiPlot {
	const w, h = 72, 24
	p := &asciiPlot{
		width: w, height: h,
		xmin: xmin, xmax: xmax, ymin: ymin, ymax: ymax,
		xlabel: xlabel, ylabel: ylabel, title: title,
	}
	p.grid = make([][]byte, h)
	for i := range p.grid {
		p.grid[i] = []byte(strings.Repeat(" ", w))
	}
	return p
}

func (p *asciiPlot) cell(x, y float64) (cx, cy int, ok bool) {
	if p.xmax == p.xmin || p.ymax == p.ymin {
		return 0, 0, false
	}
	fx := (x - p.xmin) / (p.xmax - p.xmin)
	fy := (y - p.ymin) / (p.ymax - p.ymin)
	if fx < 0 || fx > 1 || fy < 0 || fy > 1 || math.IsNaN(fx) || math.IsNaN(fy) {
		return 0, 0, false
	}
	cx = int(fx * float64(p.width-1))
	cy = p.height - 1 - int(fy*float64(p.height-1))
	return cx, cy, true
}

// point plots a single marker.
func (p *asciiPlot) point(x, y float64, marker byte) {
	if cx, cy, ok := p.cell(x, y); ok {
		p.grid[cy][cx] = marker
	}
}

// curve plots a function sampled across the x range.
func (p *asciiPlot) curve(f func(x float64) float64, marker byte) {
	for i := 0; i < p.width*2; i++ {
		x := p.xmin + (p.xmax-p.xmin)*float64(i)/float64(p.width*2-1)
		p.point(x, f(x), marker)
	}
}

// vline draws a vertical annotation line.
func (p *asciiPlot) vline(x float64, marker byte) {
	for cy := 0; cy < p.height; cy++ {
		if cx, _, ok := p.cell(x, p.ymin); ok {
			if p.grid[cy][cx] == ' ' {
				p.grid[cy][cx] = marker
			}
		}
	}
}

func (p *asciiPlot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", p.title)
	fmt.Fprintf(&b, "%s\n", p.ylabel)
	for i, row := range p.grid {
		label := "        "
		switch i {
		case 0:
			label = fmt.Sprintf("%7.2f ", p.ymax)
		case p.height - 1:
			label = fmt.Sprintf("%7.2f ", p.ymin)
		case p.height / 2:
			label = fmt.Sprintf("%7.2f ", (p.ymin+p.ymax)/2)
		}
		fmt.Fprintf(&b, "%s|%s\n", label, string(row))
	}
	fmt.Fprintf(&b, "        +%s\n", strings.Repeat("-", p.width))
	fmt.Fprintf(&b, "        %-10.2f%*s\n", p.xmin, p.width-8, fmt.Sprintf("%.2f", p.xmax))
	fmt.Fprintf(&b, "        %s\n", p.xlabel)
	return b.String()
}

// table renders rows of columns with right-aligned numeric formatting.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cols ...string) { t.rows = append(t.rows, cols) }

func (t *table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cols []string) {
		for i, c := range cols {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
