package fl

import (
	"errors"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestModeTableMatchesDesign: the table DESIGN.md §5n prints is modeTable,
// row for row in order. A table cell may name several rows ("A × B, A × C")
// and qualify a switch in parentheses ("Fanout ≥ 2"); the qualifier is
// prose and is dropped.
func TestModeTableMatchesDesign(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, sec, ok := strings.Cut(string(doc), "\n## 5n.")
	if !ok {
		t.Fatal("DESIGN.md has no §5n")
	}
	sec, _, _ = strings.Cut(sec, "\n## ")
	_, table, ok := strings.Cut(sec, "\n| Row |")
	if !ok {
		t.Fatal("DESIGN.md §5n has no mode table")
	}
	qualifier := regexp.MustCompile(` \([^)]*\)`)
	var doced []string
	for _, line := range strings.Split(table, "\n")[2:] {
		if !strings.HasPrefix(line, "|") {
			break
		}
		cell := strings.TrimSpace(strings.Split(line, "|")[1])
		doced = append(doced, strings.Split(qualifier.ReplaceAllString(cell, ""), ", ")...)
	}
	var code []string
	for _, row := range modeTable {
		code = append(code, row.a+" × "+row.b)
	}
	if strings.Join(doced, "\n") != strings.Join(code, "\n") {
		t.Errorf("DESIGN.md §5n's rows differ from modeTable's:\n doc: %q\ncode: %q", doced, code)
	}
}

// TestModeTableRowsRefuse: every row of modeTable refuses, at the entry
// point it guards, a configuration that trips that row alone, with an error
// that wraps ErrModeRefused and names the row. A row added without a case
// here fails the test.
func TestModeTableRowsRefuse(t *testing.T) {
	pop := func(c *Config) { c.NumClients, c.Population = 10, 40 }
	build := func(mut func(*Config)) error {
		_, err := resumeEngine("fedavg", mut)
		return err
	}
	onPop := func(op func(*Engine) error) func() error {
		return func() error {
			e, err := resumeEngine("fedavg", pop)
			if err != nil {
				return err
			}
			return op(e)
		}
	}
	cases := map[string]func() error{
		"Fanout×Fanout below 2": func() error {
			return build(func(c *Config) { pop(c); c.Fanout = 1 })
		},
		"Fanout×fixed-fleet engine": func() error {
			return build(func(c *Config) { c.Fanout = 8 })
		},
		"Population×AddClient": onPop(func(e *Engine) error {
			_, err := e.AddClientFromDataset(8, 1)
			return err
		}),
		"Population×RemoveClient": onPop(func(e *Engine) error { return e.RemoveClient(0) }),
	}
	for _, row := range modeTable {
		name := row.a + "×" + row.b
		t.Run(name, func(t *testing.T) {
			refuse, ok := cases[name]
			if !ok {
				t.Fatal("no case trips this row")
			}
			err := refuse()
			if !errors.Is(err, ErrModeRefused) || !strings.Contains(err.Error(), name+": "+row.reason) {
				t.Errorf("got %v, want ErrModeRefused naming %s", err, name)
			}
		})
	}
}
