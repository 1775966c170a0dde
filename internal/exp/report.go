package exp

import "fedsu/internal/trace"

// Report is what every experiment result renders to: its tables, in
// order, then its figures. Each driver's result builds one with its
// Report method, and cmd/fedsu-bench renders them all the same way.
type Report struct {
	Tables  []*trace.Table
	Figures []Figure
}

// Figure is one set of series sharing an x axis. It is written as the CSV
// File under the output directory, and plotted on stdout under Title when
// Title is set.
type Figure struct {
	File, Title string
	Series      []*trace.Series
}
