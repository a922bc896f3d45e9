package opt

import (
	"container/list"
	"fmt"
	"math"
	"time"

	"repro/internal/engine"
)

// Sized values report their own approximate resident size to
// byte-budgeted caches.
type Sized interface {
	ApproxBytes() int64
}

// SizeFunc estimates one cached value's resident bytes.
type SizeFunc func(val any) int64

// DefaultSize is the fallback size estimate: values implementing Sized
// answer for themselves; anything else is charged a flat 64 bytes (the
// order of an interface header plus a small payload), so entry-count
// pressure still exists under a byte budget even for opaque values.
func DefaultSize(val any) int64 {
	if s, ok := val.(Sized); ok {
		return s.ApproxBytes()
	}
	return 64
}

// ResultLRU is an LRU cache carrying result values — the server-side
// companion to SessionCache (which keys on quantized interaction state)
// and to the key-only Cache policies. The serving layer uses it for
// /v1/tiles results keyed by (dataset, tile) and for exact brush answers
// keyed by ranges; the planner uses the byte-budgeted form as its store of
// materialized indexes. Bounds compose: a positive capacity caps entries,
// a positive maxBytes caps the summed size estimates, and eviction runs
// until both hold. Not synchronized; callers serialize access.
type ResultLRU struct {
	capacity int
	maxBytes int64
	size     SizeFunc
	ll       *list.List
	index    map[string]*list.Element
	bytes    int64
	hits     int64
	misses   int64
	evicted  int64
	onEvict  func(key string, val any)
}

type resultEntry struct {
	key  string
	val  any
	size int64
}

// NewResultLRU builds a cache holding at most capacity entries; capacity
// <= 0 disables storage (every Get misses).
func NewResultLRU(capacity int) *ResultLRU {
	return &ResultLRU{capacity: capacity, ll: list.New(), index: map[string]*list.Element{}}
}

// NewByteLRU builds a cache bounded by approximate resident bytes rather
// than entry count: each Put charges size(val) against maxBytes and evicts
// least-recently-used entries until the budget holds. A nil size falls
// back to DefaultSize. maxBytes <= 0 disables storage. A single value
// larger than the whole budget is refused outright — never stored, never
// evicting the working set to make room for something that cannot fit.
func NewByteLRU(maxBytes int64, size SizeFunc) *ResultLRU {
	if size == nil {
		size = DefaultSize
	}
	return &ResultLRU{maxBytes: maxBytes, size: size, ll: list.New(), index: map[string]*list.Element{}}
}

// SetOnEvict installs a callback fired with every entry leaving the cache
// involuntarily: budget evictions and value replacements (a Put over an
// existing key). The callback runs synchronously under the caller's
// serialization, so it may maintain external accounting (gauges, byte
// counters) without extra locks.
func (c *ResultLRU) SetOnEvict(fn func(key string, val any)) { c.onEvict = fn }

// Get returns the cached value and whether it was present, updating
// recency and the hit/miss counters.
func (c *ResultLRU) Get(key string) (any, bool) {
	el, ok := c.index[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(resultEntry).val, true
}

// Put inserts or refreshes a value, evicting least-recently-used entries
// until the capacity and byte bounds both hold. It reports whether the
// value was stored; an oversized value (larger than the whole byte budget)
// is refused and false is returned.
func (c *ResultLRU) Put(key string, val any) bool {
	if c.capacity <= 0 && c.maxBytes <= 0 {
		return false
	}
	var sz int64
	if c.maxBytes > 0 {
		sz = c.size(val)
		if sz > c.maxBytes {
			return false
		}
	}
	if el, ok := c.index[key]; ok {
		old := el.Value.(resultEntry)
		c.bytes += sz - old.size
		el.Value = resultEntry{key, val, sz}
		c.ll.MoveToFront(el)
		if c.onEvict != nil {
			c.onEvict(old.key, old.val)
		}
		c.evictToBounds()
		return true
	}
	c.index[key] = c.ll.PushFront(resultEntry{key, val, sz})
	c.bytes += sz
	c.evictToBounds()
	return true
}

// evictToBounds drops least-recently-used entries until both bounds hold.
// The front entry (just inserted or refreshed) is never evicted: an
// oversized value was refused before insertion, so a one-entry cache
// always fits.
func (c *ResultLRU) evictToBounds() {
	for c.overBounds() {
		oldest := c.ll.Back()
		if oldest == c.ll.Front() {
			return
		}
		ent := oldest.Value.(resultEntry)
		c.ll.Remove(oldest)
		delete(c.index, ent.key)
		c.bytes -= ent.size
		c.evicted++
		if c.onEvict != nil {
			c.onEvict(ent.key, ent.val)
		}
	}
}

// overBounds reports whether either bound is currently exceeded.
func (c *ResultLRU) overBounds() bool {
	if c.capacity > 0 && c.ll.Len() > c.capacity {
		return true
	}
	return c.maxBytes > 0 && c.bytes > c.maxBytes
}

// Len returns the number of cached entries.
func (c *ResultLRU) Len() int { return c.ll.Len() }

// Bytes returns the summed size estimates of the cached entries (0 when
// the cache is entry-bounded only).
func (c *ResultLRU) Bytes() int64 { return c.bytes }

// MaxBytes returns the byte budget (0 when entry-bounded only).
func (c *ResultLRU) MaxBytes() int64 { return c.maxBytes }

// Evictions returns how many entries the bounds have pushed out.
func (c *ResultLRU) Evictions() int64 { return c.evicted }

// Stats returns hit and miss counts.
func (c *ResultLRU) Stats() (hits, misses int64) { return c.hits, c.misses }

// SessionCache reuses results of equivalent queries within a session — the
// Sesame-style optimization the survey credits with up to 25× gains, only
// available because consecutive interactive queries are related (§2.4).
//
// Two query events are equivalent when every dimension's filter range
// matches at the interface's resolution: a slider rendered on a pixel
// track cannot express finer ranges than a pixel, so ranges are quantized
// to Steps positions before keying. Gesture jitter oscillating around a
// handle position revisits the same quantized state over and over, which
// is exactly where reuse pays.
type SessionCache struct {
	// Steps is the quantization resolution (positions per dimension
	// domain); defaults to the slider track width in pixels.
	Steps int
	// Capacity bounds the number of cached events (0 = unbounded).
	Capacity int
	// HitCost is the model latency of serving a cached result.
	HitCost time.Duration

	entries map[string][]*engine.Result
	order   []string
	hits    int64
	misses  int64
}

// NewSessionCache builds a cache at the given resolution.
func NewSessionCache(steps, capacity int) *SessionCache {
	if steps <= 0 {
		steps = 350
	}
	return &SessionCache{
		Steps:    steps,
		Capacity: capacity,
		HitCost:  500 * time.Microsecond,
		entries:  map[string][]*engine.Result{},
	}
}

// Key derives the quantized cache key of a query event.
func (sc *SessionCache) Key(ev QueryEvent, dims []CrossfilterDim) string {
	key := fmt.Sprintf("m%d", ev.Moved)
	for d, r := range ev.Ranges {
		span := dims[d].Hi - dims[d].Lo
		if span <= 0 {
			span = 1
		}
		lo := int(math.Round((r[0] - dims[d].Lo) / span * float64(sc.Steps)))
		hi := int(math.Round((r[1] - dims[d].Lo) / span * float64(sc.Steps)))
		key += fmt.Sprintf("|%d:%d", lo, hi)
	}
	return key
}

// Stats returns hit and miss counts.
func (sc *SessionCache) Stats() (hits, misses int64) { return sc.hits, sc.misses }

// HitRate returns hits/(hits+misses).
func (sc *SessionCache) HitRate() float64 {
	if sc.hits+sc.misses == 0 {
		return 0
	}
	return float64(sc.hits) / float64(sc.hits+sc.misses)
}

// lookup returns a cached result set, counting the access.
func (sc *SessionCache) lookup(key string) ([]*engine.Result, bool) {
	res, ok := sc.entries[key]
	if ok {
		sc.hits++
	} else {
		sc.misses++
	}
	return res, ok
}

// store inserts a result set, evicting the oldest entry beyond capacity.
func (sc *SessionCache) store(key string, res []*engine.Result) {
	if _, exists := sc.entries[key]; !exists {
		sc.order = append(sc.order, key)
		if sc.Capacity > 0 && len(sc.order) > sc.Capacity {
			oldest := sc.order[0]
			sc.order = sc.order[1:]
			delete(sc.entries, oldest)
		}
	}
	sc.entries[key] = res
}

// ReplayWithReuse replays a workload through the session cache: hits are
// served client-side at HitCost, misses go to the backend. The returned
// result's latency series mixes both, which is how the reuse speedup shows
// up end to end.
func ReplayWithReuse(srv *engine.Server, events []QueryEvent, dims []CrossfilterDim, cache *SessionCache) (*ReplayResult, error) {
	res := &ReplayResult{Policy: "reuse", Offered: len(events)}
	for _, ev := range events {
		key := cache.Key(ev, dims)
		if _, ok := cache.lookup(key); ok {
			res.Executed++
			res.Issues = append(res.Issues, ev.At)
			res.Finishes = append(res.Finishes, ev.At+cache.HitCost)
			res.Latency = append(res.Latency, cache.HitCost)
			res.Exec = append(res.Exec, 0)
			continue
		}
		recs, err := srv.SubmitGroup(ev.At, ev.Stmts)
		if err != nil {
			return nil, err
		}
		stored := make([]*engine.Result, len(recs))
		for i := range recs {
			stored[i] = recs[i].Result
		}
		cache.store(key, stored)
		if len(recs) > 0 {
			r := recs[0]
			res.Executed++
			res.Issues = append(res.Issues, r.Issue)
			res.Finishes = append(res.Finishes, r.Finish)
			res.Latency = append(res.Latency, r.Latency())
			res.Exec = append(res.Exec, r.Exec)
		}
	}
	return res, nil
}
