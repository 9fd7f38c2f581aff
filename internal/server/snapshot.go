// Rule snapshots and the ad-hoc pattern cache.
//
// The server's rule database is immutable once compiled: a snapshot
// bundles the pattern sources with the RuleSet built from them, and
// the live snapshot is swapped atomically (atomic.Pointer) by Reload.
// In-flight requests keep scanning the snapshot they dispatched
// against — a reload never stalls the data path behind a lock, and a
// half-reloaded state is unrepresentable. The RuleSet itself is safe
// for concurrent scans (bounded worker pool over pooled cores), so one
// snapshot serves every server worker at once.
package server

import (
	"bufio"
	"container/list"
	"errors"
	"fmt"
	"strings"
	"sync"

	"alveare/internal/backend"
	"alveare/internal/core"
)

// snapshot is one immutable compiled rule-set generation.
type snapshot struct {
	generation uint32
	patterns   []string
	rules      *core.RuleSet
}

// compileSnapshot builds a snapshot from pattern sources with the
// server's scan options applied.
func compileSnapshot(patterns []string, generation uint32, opts []core.Option) (*snapshot, error) {
	if len(patterns) == 0 {
		return nil, fmt.Errorf("server: empty rule set")
	}
	rs, err := core.NewRuleSet(patterns, backend.Options{}, opts...)
	if err != nil {
		return nil, err
	}
	return &snapshot{
		generation: generation,
		patterns:   append([]string(nil), patterns...),
		rules:      rs,
	}, nil
}

// ParseRules extracts the rule list from a rules document: one regular
// expression per line, blank lines and '#' comments skipped — the same
// format alvearescan's -rules flag and the OpReload body use.
func ParseRules(text string) []string {
	var rules []string
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		rules = append(rules, line)
	}
	return rules
}

// programCache is an LRU of compiled ad-hoc patterns keyed by source,
// so repeated OpScanPattern requests for the same expression pay
// compilation once. Each entry is a one-rule RuleSet, safe for
// concurrent scans, so every request for a pattern shares its entry:
// the first compiles it and requests overlapping that compile wait for
// it instead of compiling their own.
type programCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*list.Element
	order   *list.List // front = most recently used
	hits    int64
	misses  int64
}

type cacheEntry struct {
	pattern string
	once    sync.Once // the compile
	rs      *core.RuleSet
	err     error
}

// newProgramCache returns an LRU holding up to capacity compiled
// patterns; capacity <= 0 disables caching (every get compiles).
func newProgramCache(capacity int) *programCache {
	return &programCache{
		cap:     capacity,
		entries: map[string]*list.Element{},
		order:   list.New(),
	}
}

// get returns the rule set for pattern, compiling it on a miss. A
// pattern that fails to compile is never cached, nor does it evict one
// that compiled.
func (c *programCache) get(pattern string, opts []core.Option) (*core.RuleSet, error) {
	e, miss := &cacheEntry{pattern: pattern}, true
	c.mu.Lock()
	if el, ok := c.entries[pattern]; ok {
		c.order.MoveToFront(el)
		c.hits++
		e, miss = el.Value.(*cacheEntry), false
	} else {
		c.misses++
		if c.cap > 0 {
			c.entries[pattern] = c.order.PushFront(e)
		}
	}
	c.mu.Unlock()
	e.once.Do(func() {
		e.rs, e.err = core.NewRuleSet([]string{pattern}, backend.Options{}, opts...)
		// The compile error itself: a one-pattern request names no rule.
		if cause := errors.Unwrap(e.err); cause != nil {
			e.err = cause
		}
	})
	if miss && c.cap > 0 {
		c.mu.Lock()
		if e.err != nil {
			if el, ok := c.entries[pattern]; ok && el.Value == e {
				c.order.Remove(el)
				delete(c.entries, pattern)
			}
		}
		for c.order.Len() > c.cap {
			delete(c.entries, c.order.Remove(c.order.Back()).(*cacheEntry).pattern)
		}
		c.mu.Unlock()
	}
	return e.rs, e.err
}

// stats returns the hit/miss counters.
func (c *programCache) stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
