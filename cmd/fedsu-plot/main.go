// Command fedsu-plot renders the CSV series emitted by fedsu-bench as
// standalone SVG line charts, so the reproduced figures can be viewed
// without an external plotting stack.
//
// Usage:
//
//	fedsu-plot -in results/fig5_acc_cnn.csv -out fig5_cnn.svg -title "Fig 5 (CNN)"
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"fedsu/internal/trace"
)

func main() {
	var (
		in     = flag.String("in", "", "input CSV (first column x, one column per series)")
		out    = flag.String("out", "", "output SVG path (default: input with .svg)")
		title  = flag.String("title", "", "chart title")
		xlabel = flag.String("xlabel", "", "x-axis label (default: CSV header)")
		ylabel = flag.String("ylabel", "", "y-axis label")
		width  = flag.Int("width", 640, "canvas width")
		height = flag.Int("height", 400, "canvas height")
	)
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "fedsu-plot: -in is required")
		os.Exit(2)
	}
	if *out == "" {
		*out = strings.TrimSuffix(*in, ".csv") + ".svg"
	}

	f0, err := os.Open(*in)
	if err != nil {
		fatal(err)
	}
	series, xname, err := trace.ReadCSVMulti(f0)
	f0.Close()
	if err != nil {
		fatal(err)
	}
	if *xlabel == "" {
		*xlabel = xname
	}
	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	opts := trace.SVGOptions{
		Title: *title, Width: *width, Height: *height,
		XLabel: *xlabel, YLabel: *ylabel,
	}
	if err := trace.WriteSVG(f, opts, series...); err != nil {
		fatal(err)
	}
	fmt.Printf("fedsu-plot: wrote %s (%d series)\n", *out, len(series))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fedsu-plot:", err)
	os.Exit(1)
}
