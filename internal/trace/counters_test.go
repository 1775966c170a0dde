package trace

import (
	"strings"
	"sync"
	"testing"
)

func TestCountersBasics(t *testing.T) {
	c := NewCounters()
	if got := c.Get("missing"); got != 0 {
		t.Errorf("Get(missing) = %d, want 0", got)
	}
	c.Inc("retries")
	c.Inc("retries")
	c.Add("evictions", 3)
	if got := c.Get("retries"); got != 2 {
		t.Errorf("retries = %d, want 2", got)
	}
	if got := c.Get("evictions"); got != 3 {
		t.Errorf("evictions = %d, want 3", got)
	}
	if got, want := c.String(), "evictions=3 retries=2"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	// Name order, not "name=value" order: '-' sorts below '='.
	c.Inc("evictions-late")
	if got, want := c.String(), "evictions=3 evictions-late=1 retries=2"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestCountersNilSafe(t *testing.T) {
	var c *Counters
	c.Inc("x") // must not panic
	c.Add("x", 5)
	if got := c.Get("x"); got != 0 {
		t.Errorf("nil Get = %d, want 0", got)
	}
	if s := c.String(); s != "" {
		t.Errorf("nil String = %q, want empty", s)
	}
}

func TestCountersConcurrent(t *testing.T) {
	c := NewCounters()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 100; j++ {
			if s := c.String(); s != "" && !strings.HasPrefix(s, "hits=") {
				t.Errorf("String() = %q mid-run", s)
			}
		}
	}()
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc("hits")
			}
		}()
	}
	wg.Wait()
	if got := c.Get("hits"); got != 8000 {
		t.Errorf("hits = %d, want 8000", got)
	}
	if got, want := c.String(), "hits=8000"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
