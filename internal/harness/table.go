// Package harness defines one runnable experiment per table and figure of
// the paper's evaluation (§6), each regenerating the same rows or series the
// paper reports, on the simulated substrates of this repository. The
// cmd/triobench binary and the repository's benchmarks are thin wrappers
// around these runners.
package harness

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"github.com/trioml/triogo/internal/obs"
)

// Table is a formatted experiment result.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a row, stringifying each cell.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "\n== %s ==\n", t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Params tunes experiment cost. Quick mode shrinks sweep sizes so the whole
// suite runs in tens of seconds; Full mode uses the paper-scale parameters.
type Params struct {
	Quick      bool
	Seed       uint64
	Parallel   int           // sweep worker-pool size; <2 runs points serially
	Partitions int           // sim partitions, tree and treechaos only; every single-router rig runs on one engine
	Log        io.Writer     // progress messages; nil discards
	Trace      *obs.Trace    // when non-nil, experiments record chrome-trace spans into it
	Obs        *obs.Registry // when non-nil, rigs register their engine/PFE/smem metrics
}

func (p Params) logf(format string, args ...interface{}) {
	if p.Log != nil {
		fmt.Fprintf(p.Log, format+"\n", args...)
	}
}

func (p Params) seed() uint64 {
	if p.Seed == 0 {
		return 1
	}
	return p.Seed
}

// Experiment is a registered runner.
type Experiment struct {
	Name string // e.g. "fig13"
	Desc string
	Run  func(p Params) ([]*Table, error)
}

var registry = map[string]Experiment{}

func register(e Experiment) { registry[e.Name] = e }

// Experiments lists registered experiments sorted by name.
func Experiments() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Lookup finds an experiment by name.
func Lookup(name string) (Experiment, bool) {
	e, ok := registry[name]
	return e, ok
}
