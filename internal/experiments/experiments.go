package experiments

import (
	"context"
	"fmt"
	"io"
	"strings"

	"repro/internal/scenario"
)

// Options scale the experiments. Full() reproduces the paper's setup;
// Quick() shrinks epochs for CI and benchmarks.
type Options struct {
	Seed     uint64
	NumNodes int
	Epochs   int64

	// Workers bounds how many simulation runs execute concurrently inside
	// each sweep-style experiment (and how many whole experiments RunAll
	// executes concurrently). 0 or negative means one worker per available
	// CPU (runtime.GOMAXPROCS(0)); 1 forces sequential execution. Every
	// run derives all randomness from its own cfg.Seed, so results are
	// bit-identical whatever the worker count.
	Workers int

	// sem, when non-nil, is a shared limiter on simulations in flight.
	// RunAll installs it so that nesting (experiments in parallel, each
	// sweeping in parallel) still respects the Workers cap globally.
	sem chan struct{}

	// ctx, when non-nil, cancels the leaf pools of nested sweeps. RunAll
	// installs it so that aborting the batch also skips the simulations
	// still queued inside in-flight experiments.
	ctx context.Context
}

// Full returns the paper-scale options: 50 nodes, 20 000 epochs.
func Full() Options { return Options{Seed: 1, NumNodes: 50, Epochs: 20000} }

// Quick returns CI-scale options (same topology, 1/10 the epochs).
func Quick() Options { return Options{Seed: 1, NumNodes: 50, Epochs: 2000} }

// base builds the shared scenario configuration.
func (o Options) base() scenario.Config {
	cfg := scenario.Default()
	cfg.Seed = o.Seed
	cfg.NumNodes = o.NumNodes
	cfg.Epochs = o.Epochs
	return cfg
}

// Table is a generic labelled grid used by all experiment outputs.
type Table struct {
	Title   string
	Comment string
	Header  []string
	Rows    [][]string
}

// Render writes the table as aligned ASCII text.
func (t *Table) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "## %s\n", t.Title); err != nil {
		return err
	}
	if t.Comment != "" {
		for _, line := range strings.Split(t.Comment, "\n") {
			if _, err := fmt.Fprintf(w, "# %s\n", line); err != nil {
				return err
			}
		}
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) error {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
		return err
	}
	if err := line(t.Header); err != nil {
		return err
	}
	seps := make([]string, len(t.Header))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	if err := line(seps); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := line(row); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// CSV writes the table as comma-separated values.
func (t *Table) CSV(w io.Writer) error {
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	rows := append([][]string{t.Header}, t.Rows...)
	for _, row := range rows {
		cells := make([]string, len(row))
		for i, c := range row {
			cells[i] = esc(c)
		}
		if _, err := fmt.Fprintln(w, strings.Join(cells, ",")); err != nil {
			return err
		}
	}
	return nil
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func d0(v int64) string   { return fmt.Sprintf("%d", v) }
