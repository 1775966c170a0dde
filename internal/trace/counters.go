package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Counters is a concurrency-safe set of named monotonic counters, used to
// surface operational events (retries, reconnects, evictions, barrier
// timeouts) from the fault-tolerant collectives into experiment reports.
// All methods are safe on a nil *Counters: reads return zero and writes
// are dropped, so instrumented code paths need no nil checks.
type Counters struct {
	mu sync.Mutex
	m  map[string]int64
}

// NewCounters constructs an empty counter set.
func NewCounters() *Counters {
	return &Counters{m: map[string]int64{}}
}

// Inc increments the named counter by one.
func (c *Counters) Inc(name string) { c.Add(name, 1) }

// Add increments the named counter by delta.
func (c *Counters) Add(name string, delta int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.m[name] += delta
	c.mu.Unlock()
}

// Get returns the named counter's value (zero when never incremented).
func (c *Counters) Get(name string) int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[name]
}

// String renders the counters as "name=value" pairs in name order, e.g.
// "evictions=1 retries=3" — empty for an empty (or nil) set. Names and
// values are read in one locked pass, so they come from one instant.
func (c *Counters) String() string {
	if c == nil {
		return ""
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make([]string, 0, len(c.m))
	for k := range c.m {
		names = append(names, k)
	}
	sort.Strings(names)
	for i, n := range names {
		names[i] = fmt.Sprintf("%s=%d", n, c.m[n])
	}
	return strings.Join(names, " ")
}
