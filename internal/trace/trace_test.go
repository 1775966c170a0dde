package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestSeriesBasics(t *testing.T) {
	s := NewSeries("acc", "time", "accuracy")
	if !math.IsNaN(s.LastY()) {
		t.Error("empty series must report a NaN LastY")
	}
	s.Add(0, 0.1)
	s.Add(10, 0.5)
	s.Add(20, 0.4)
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.LastY() != 0.4 {
		t.Errorf("LastY = %v", s.LastY())
	}
}

func TestWriteCSVMulti(t *testing.T) {
	a := NewSeries("a", "x", "y")
	a.Add(1, 10)
	a.Add(2, 20)
	b := NewSeries("b", "x", "y")
	b.Add(2, 200)
	var buf bytes.Buffer
	if err := WriteCSVMulti(&buf, a, b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "x,a,b" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[1] != "1,10," {
		t.Errorf("row 1 = %q", lines[1])
	}
	if lines[2] != "2,20,200" {
		t.Errorf("row 2 = %q", lines[2])
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("Table I", "Model", "Scheme", "Time")
	tb.AddRow("CNN", "FedSU", 0.53)
	tb.AddRow("CNN", "FedAvg", 0.91)
	var b bytes.Buffer
	if err := tb.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Table I", "Model", "FedSU", "0.53", "FedAvg"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestAsciiPlot(t *testing.T) {
	s := NewSeries("line", "x", "y")
	for i := 0; i < 10; i++ {
		s.Add(float64(i), float64(i))
	}
	var b bytes.Buffer
	if err := AsciiPlot(&b, 40, 10, s); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "*") {
		t.Error("plot contains no marks")
	}
	if err := AsciiPlot(&b, 2, 2, s); err == nil {
		t.Error("tiny plot must error")
	}
	if err := AsciiPlot(&b, 40, 10, NewSeries("empty", "x", "y")); err == nil {
		t.Error("empty plot must error")
	}
}

func TestAsciiPlotConstantSeries(t *testing.T) {
	s := NewSeries("flat", "x", "y")
	s.Add(0, 5)
	s.Add(1, 5)
	var b bytes.Buffer
	if err := AsciiPlot(&b, 20, 5, s); err != nil {
		t.Fatalf("constant series should plot: %v", err)
	}
}
