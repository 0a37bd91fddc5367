package harness

import (
	"fmt"
	"strings"
)

// Report is a rendered experiment: a table plus machine-readable key
// values the tests assert against.
type Report struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
	// Values holds named scalar results, e.g. "avg_improvement_over_pts".
	Values map[string]float64
	// Deadlocked lists, one diagnostic line each, the cells of the session
	// whose simulation stopped with threads still parked. When it is
	// non-empty the report's numbers are not results.
	Deadlocked []string
}

// Render formats the report as an ASCII table.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s — %s\n\n", r.ID, r.Title)
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			} else {
				// Row wider than the header: emit the extra cells unpadded
				// instead of panicking on widths[i].
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	line(r.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "\n%s\n", n)
	}
	return b.String()
}
