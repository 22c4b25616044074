package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// dist holds the observations of one quantity, in its reporting unit.
type dist struct{ xs []float64 }

func (d *dist) add(x float64) { d.xs = append(d.xs, x) }

func (d *dist) n() int { return len(d.xs) }

// quantile returns the nearest-rank q-quantile, or 0 with no samples.
func (d *dist) quantile(q float64) float64 {
	if len(d.xs) == 0 {
		return 0
	}
	xs := append([]float64(nil), d.xs...)
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func median(xs []float64) float64 {
	d := dist{xs: xs}
	return d.quantile(0.5)
}

// metric is one reported number.  N is the sample count behind a
// percentile, or -1 for counts, ratios and single measurements.
type metric struct {
	Name  string
	Unit  string
	Value float64
	N     int
}

// report collects a run's metrics in the order they are produced.
type report struct{ ms []metric }

func (r *report) add(name, unit string, v float64, n int) {
	r.ms = append(r.ms, metric{Name: name, Unit: unit, Value: v, N: n})
}

// pct adds the q-quantile of d under name, with its sample count.
func (r *report) pct(name, unit string, d *dist, q float64) {
	r.add(name, unit, d.quantile(q), d.n())
}

func (r *report) get(name string) (metric, bool) {
	for _, m := range r.ms {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// lines renders every metric as "metric <name> = <value> <unit> (n=N)".
func (r *report) lines() []string {
	out := make([]string, 0, len(r.ms))
	for _, m := range r.ms {
		s := fmt.Sprintf("metric %s = %.6g %s", m.Name, m.Value, m.Unit)
		if m.N >= 0 {
			s += fmt.Sprintf(" (n=%d)", m.N)
		}
		out = append(out, s)
	}
	return out
}

// missing lists the names in want that the report lacks.
func (r *report) missing(want []string) []string {
	var out []string
	for _, name := range want {
		if _, ok := r.get(name); !ok {
			out = append(out, name)
		}
	}
	return out
}

func joinNames(names []string) string { return strings.Join(names, ",") }
