// Package stats defines the measurement vocabulary of the simulator: the
// execution-time breakdown of Figure 3 of the paper, aggregate counters, and
// plain-text table rendering used by the benchmark harness.
package stats

import (
	"fmt"
	"strings"
)

// Category labels one slice of a processor's execution time. The categories
// mirror Figure 3: computation, synchronization, read/write invalidation
// stall (time the directory spent invalidating outstanding copies on the
// request's behalf), read/write other stall (the rest of the miss latency),
// the three weak-consistency write-buffer stalls, and the time spent waiting
// for self-invalidation to complete at synchronization points.
type Category int

const (
	Compute Category = iota
	Sync
	ReadInval
	ReadOther
	WriteInval
	WriteOther
	SyncWB // stalled at a sync point draining the write buffer
	ReadWB // read stalled behind an outstanding write-buffer miss
	WBFull // stalled because the write buffer was full
	DSIStall
	NumCategories
)

var categoryNames = [NumCategories]string{
	"compute", "synch", "read-inv", "read-other", "write-inv", "write-other",
	"synch-wb", "read-wb", "wb-full", "dsi",
}

func (c Category) String() string {
	if c < 0 || c >= NumCategories {
		return fmt.Sprintf("Category(%d)", int(c))
	}
	return categoryNames[c]
}

// Categories returns all categories in display order.
func Categories() []Category {
	out := make([]Category, NumCategories)
	for i := range out {
		out[i] = Category(i)
	}
	return out
}

// Breakdown accumulates cycles per category. The zero value is empty.
type Breakdown struct {
	Cycles [NumCategories]int64
}

// Add charges n cycles to category c.
func (b *Breakdown) Add(c Category, n int64) {
	if n < 0 {
		panic("stats: negative cycle charge")
	}
	b.Cycles[c] += n
}

// Total returns the sum over all categories.
func (b *Breakdown) Total() int64 {
	var t int64
	for _, v := range b.Cycles {
		t += v
	}
	return t
}

// Merge adds o into b.
func (b *Breakdown) Merge(o *Breakdown) {
	for i, v := range o.Cycles {
		b.Cycles[i] += v
	}
}

// Share returns category c's fraction of the total, or 0 for an empty
// breakdown.
func (b *Breakdown) Share(c Category) float64 {
	t := b.Total()
	if t == 0 {
		return 0
	}
	return float64(b.Cycles[c]) / float64(t)
}

func (b *Breakdown) String() string {
	var sb strings.Builder
	for c, v := range b.Cycles {
		if v == 0 {
			continue
		}
		if sb.Len() > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%s=%d", Category(c), v)
	}
	if sb.Len() == 0 {
		return "(empty)"
	}
	return sb.String()
}

// Counter is a named monotonically increasing count.
type Counter struct {
	Name  string
	Value int64
}

// Kernel reports event-kernel activity for one simulation run: how hard the
// discrete-event scheduler worked. Every counter is deterministic, so two
// runs of one cell report equal values.
type Kernel struct {
	// Events is the number of events executed.
	Events uint64
	// Scheduled is the number of events enqueued.
	Scheduled uint64
	// PeakQueue is the maximum number of pending events observed.
	PeakQueue int
}

// Table renders aligned plain-text tables, the output format of
// cmd/dsibench and EXPERIMENTS.md.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Header))
	copy(row, cells)
	t.Rows = append(t.Rows, row)
}

// Render returns the table as text with columns padded to equal width.
func (t Table) Render() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title)
		sb.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Header)
	total := 0
	if len(t.Header) > 1 {
		total = len(t.Header)*2 - 2
	}
	for _, w := range widths {
		total += w
	}
	sb.WriteString(strings.Repeat("-", total))
	sb.WriteByte('\n')
	for _, r := range t.Rows {
		writeRow(r)
	}
	return sb.String()
}

// Pct formats a ratio as a percentage string ("41%").
func Pct(x float64) string { return fmt.Sprintf("%.0f%%", x*100) }

// Norm formats a normalized value ("0.84").
func Norm(x float64) string { return fmt.Sprintf("%.2f", x) }
