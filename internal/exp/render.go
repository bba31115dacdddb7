package exp

import (
	"fmt"
	"strings"
)

// table is a minimal aligned-column text table.
type table struct {
	title   string
	headers []string
	rows    [][]string
	notes   []string
}

func newTable(title string, headers ...string) *table {
	return &table{title: title, headers: headers}
}

func (t *table) addRow(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) addNote(format string, args ...any) {
	t.notes = append(t.notes, fmt.Sprintf(format, args...))
}

func (t *table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	if t.title != "" {
		sb.WriteString(t.title + "\n")
		sb.WriteString(strings.Repeat("=", len(t.title)) + "\n")
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			if i < len(widths) {
				sb.WriteString(pad(c, widths[i], i != 0))
			} else {
				sb.WriteString(c)
			}
		}
		sb.WriteString("\n")
	}
	line(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
	for _, n := range t.notes {
		sb.WriteString(n + "\n")
	}
	return sb.String()
}

// CSV renders the table as comma-separated values.
func (t *table) CSV() string {
	var sb strings.Builder
	sb.WriteString(strings.Join(t.headers, ",") + "\n")
	for _, r := range t.rows {
		sb.WriteString(strings.Join(r, ",") + "\n")
	}
	return sb.String()
}

// render renders the table as aligned text, or as CSV.
func (t *table) render(csv bool) string {
	if csv {
		return t.CSV()
	}
	return t.String()
}

// pad left- or right-aligns a cell.
func pad(s string, w int, right bool) string {
	if len(s) >= w {
		return s
	}
	fill := strings.Repeat(" ", w-len(s))
	if right {
		return fill + s
	}
	return s + fill
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
