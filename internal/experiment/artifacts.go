package experiment

import (
	"strings"

	"ctcp/internal/stats"
)

// Artifact is one table or figure the harness regenerates. Build simulates
// what it prints, through runRows, and returns its tables.
type Artifact struct {
	Name string
	// OptIn marks an experiment the paper does not print: 'all' leaves it
	// out, so `make results` simulates only the paper.
	OptIn bool
	// Trailer ends the rendering with one more blank line, as Figures 8
	// and 9 always have.
	Trailer bool
	Build   func(*Runner) []Section
}

// Artifacts is the registry of every artifact, in generation order. It is
// the one list of artifact names: ctcpbench's -exp, the ctcp facade, the
// root benchmarks and the tests all read it, so a new table or opt-in
// experiment is one entry here.
var Artifacts = []Artifact{
	{Name: "table1", Build: table1},
	{Name: "fig4", Build: figure4},
	{Name: "table2", Build: table2},
	{Name: "fig5", Build: figure5},
	{Name: "table3", Build: table3},
	{Name: "fig6", Build: figure6},
	{Name: "table8", Build: table8},
	{Name: "fig7", Build: figure7},
	{Name: "table9", Build: table9},
	{Name: "table10", Build: table10},
	{Name: "fig8", Trailer: true, Build: figure8},
	{Name: "ablation", Build: ablation},
	{Name: "sweeps", OptIn: true, Build: sweeps},
	{Name: "fig9", Trailer: true, Build: figure9},
}

// ArtifactNames lists the registry's names, comma-separated, in order.
func ArtifactNames() string {
	names := make([]string, len(Artifacts))
	for i, a := range Artifacts {
		names[i] = a.Name
	}
	return strings.Join(names, ",")
}

// Render builds the artifact on r and renders its sections with one blank
// line between them.
func (a Artifact) Render(r *Runner) string {
	var parts []string
	for _, s := range a.Build(r) {
		parts = append(parts, s.Render())
	}
	if a.Trailer {
		parts = append(parts, "")
	}
	return strings.Join(parts, "\n")
}

// BenchRow pairs one benchmark (or sweep point) with its measured values.
type BenchRow struct {
	Bench  string
	Values []float64
}

// Section is one printed table of an artifact: a row per benchmark, an
// optional summary row, then notes.
type Section struct {
	Title  string
	Header []string // the row-key column, then one per value column
	Notes  []string
	Rows   []BenchRow
	Format []func(float64) string // one per value column
	// Summary labels the closing row: "HM" for each column's harmonic mean
	// (the paper's speedup average), "Avg" for its mean, "" for no row.
	Summary string
	// Paper holds the paper's reported values per benchmark. When
	// PaperHeader is set, they print under it as one a/b/c cell of
	// percentages after the value columns.
	Paper       map[string][]float64
	PaperHeader string
}

// Totals returns the summary row's values, one per value column.
func (s Section) Totals() []float64 {
	agg := stats.Mean
	if s.Summary == "HM" {
		agg = stats.HarmonicMean
	}
	out := make([]float64, len(s.Format))
	for k := range out {
		var col []float64
		for _, row := range s.Rows {
			col = append(col, row.Values[k])
		}
		out[k] = agg(col)
	}
	return out
}

// Render formats the section as a plain-text table.
func (s Section) Render() string {
	tab := &stats.Table{Title: s.Title, Header: s.Header, Notes: s.Notes}
	if s.PaperHeader != "" {
		tab.Header = append(append([]string(nil), s.Header...), s.PaperHeader)
	}
	add := func(key string, values, paper []float64) {
		cells := []string{key}
		for i, v := range values {
			cells = append(cells, s.Format[i](v))
		}
		if s.PaperHeader != "" {
			var p []string
			for _, v := range paper {
				p = append(p, stats.Pct(v))
			}
			cells = append(cells, strings.Join(p, "/"))
		}
		tab.AddRow(cells...)
	}
	for _, row := range s.Rows {
		add(row.Bench, row.Values, s.Paper[row.Bench])
	}
	if s.Summary != "" {
		add(s.Summary, s.Totals(), nil)
	}
	return tab.Render()
}

// repeat returns n copies of format: a section whose columns share one.
func repeat(format func(float64) string, n int) []func(float64) string {
	out := make([]func(float64) string, n)
	for i := range out {
		out[i] = format
	}
	return out
}
