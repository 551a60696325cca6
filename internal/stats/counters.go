package stats

import (
	"fmt"
	"strconv"
)

// Counter is one row of a counter table: one number of a counter struct
// T, declared once with everything its views print about it. Merge, the
// run report (String) and /metrics all iterate the rows, so a counter
// with a row is in every view, and TestEveryFieldHasOneRow fails on a
// field without one.
type Counter[T any] struct {
	// Family is the Prometheus metric family ("" = not exported). A
	// family's rows are adjacent, and its first row's Help and Gauge are
	// the family's.
	Family string
	// Label is the label pair inside the sample's braces, such as
	// `kind="workers_lost"`; "" for none.
	Label string
	Help  string
	// Gauge marks a level, not a running total: /metrics types it
	// gauge, and Merge keeps the larger of two values instead of adding.
	Gauge bool
	// Short names the row in the run report ("" = not printed).
	Short string
	// Field is the counter's storage. Value, set instead of Field,
	// computes a number that is no uint64 field — a ratio, seconds, a
	// signed gauge — which /metrics prints and Merge and the report skip.
	Field func(*T) *uint64
	Value func(*T) float64
}

// mergeRows adds o's counters into c, keeping the larger of each gauge.
func mergeRows[T any](rows []Counter[T], c, o *T) {
	for _, r := range rows {
		if r.Field == nil {
			continue
		}
		p, v := r.Field(c), *r.Field(o)
		if r.Gauge {
			*p = max(*p, v)
		} else {
			*p += v
		}
	}
}

// report returns "short=value" for every row with a short name, leaving
// out zeros when sparse.
func report[T any](rows []Counter[T], c *T, sparse bool) []string {
	var parts []string
	for _, r := range rows {
		if r.Short == "" {
			continue
		}
		if v := *r.Field(c); v > 0 || !sparse {
			parts = append(parts, fmt.Sprintf("%s=%d", r.Short, v))
		}
	}
	return parts
}

// Lift re-roots rows onto a struct T that holds their U, so that one
// table can list the rows of several counter structs.
func Lift[T, U any](rows []Counter[U], in func(*T) *U) []Counter[T] {
	out := make([]Counter[T], len(rows))
	for i, r := range rows {
		out[i] = Counter[T]{Family: r.Family, Label: r.Label, Help: r.Help, Gauge: r.Gauge, Short: r.Short}
		if f := r.Field; f != nil {
			out[i].Field = func(t *T) *uint64 { return f(in(t)) }
		}
		if v := r.Value; v != nil {
			out[i].Value = func(t *T) float64 { return v(in(t)) }
		}
	}
	return out
}

// Prom builds the Prometheus text format in Text: each family's HELP
// and TYPE lines, then its samples.
type Prom struct {
	Text   []byte
	family string // the family open for samples
}

// Family opens a family for samples, writing its HELP and TYPE lines
// unless it is already open.
func (p *Prom) Family(family, help string, gauge bool) {
	if family == p.family {
		return
	}
	p.family = family
	typ := "counter"
	if gauge {
		typ = "gauge"
	}
	p.line("# HELP ", family, " ", help)
	p.line("# TYPE ", family, " ", typ)
}

// line appends parts and a newline.
func (p *Prom) line(parts ...string) {
	for _, s := range parts {
		p.Text = append(p.Text, s...)
	}
	p.Text = append(p.Text, '\n')
}

// Sample writes one sample of the open family; label goes inside the
// braces ("" for none).
func (p *Prom) Sample(label string, v uint64) {
	p.Text = strconv.AppendUint(p.name(label), v, 10)
	p.Text = append(p.Text, '\n')
}

// SampleFloat is Sample for a float, printed as fmt's %g prints it.
func (p *Prom) SampleFloat(label string, v float64) {
	p.Text = strconv.AppendFloat(p.name(label), v, 'g', -1, 64)
	p.Text = append(p.Text, '\n')
}

// name appends a sample's name and labels, and the space before its
// value.
func (p *Prom) name(label string) []byte {
	b := append(p.Text, p.family...)
	if label != "" {
		b = append(b, '{')
		b = append(b, label...)
		b = append(b, '}')
	}
	return append(b, ' ')
}

// WriteRow writes row r's sample of c, if r is exported.
func WriteRow[T any](p *Prom, r *Counter[T], c *T) {
	if r.Family == "" {
		return
	}
	p.Family(r.Family, r.Help, r.Gauge)
	if r.Value != nil {
		p.SampleFloat(r.Label, r.Value(c))
	} else {
		p.Sample(r.Label, *r.Field(c))
	}
}
