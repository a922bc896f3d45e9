// Package planner puts one materialized per-selection index family
// (matindex.go) in front of the prefix cube: a hot-template detector builds
// a dedicated index for the drag pattern a session keeps re-issuing, and
// every brush is answered from its session template's index when that is
// built, else from the prefix cube. That is the whole policy — the Mosaic
// Selections shape: a pre-aggregation keyed by the selection template, and
// the base structure it falls back to. Both answers are bit-identical.
package planner

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/datacube"
	"repro/internal/opt"
	"repro/internal/storage"
)

// Structure names who answered a brush.
type Structure int

// The answer structures.
const (
	// PrefixCube differences the summed-area cube's corners:
	// O(Σ bins·2^(d-1) + 2^d) reads per brush.
	PrefixCube Structure = iota
	// MatIndex is a planner-materialized per-selection index: the moved
	// dimension's axis prefix-summed against every view, so one template's
	// drag steps cost O(Σ bins) regardless of dimensionality.
	MatIndex

	// numLive counts the structures above, the ones Answer picks between;
	// it sizes Planner.choices and bounds Stats.Choices.
	numLive

	// CrossDelta is never chosen and never reported: crossfilter's delta
	// scan is not a planner arm. The name survives only because cmd/bench
	// reads it (planner.choice_cross_delta); it goes at the next benchmark
	// revision.
	CrossDelta
)

// String is the structure's label in Stats.Choices and
// planner_choice_total{structure=...}.
func (s Structure) String() string {
	switch s {
	case PrefixCube:
		return "prefix-cube"
	case MatIndex:
		return "mat-index"
	case CrossDelta:
		return "cross-delta"
	default:
		return "unknown"
	}
}

// Config tunes a Planner. The zero value means: 64 MB index budget, hot
// streak of 8, prefix cube integrated from New's dense cube, GOMAXPROCS
// build parallelism.
type Config struct {
	// Budget bounds the materialized indexes in approximate resident
	// bytes; <= 0 means DefaultBudget.
	Budget int64
	// HotStreak is how many consecutive same-template queries a session
	// must issue before its template is materialized; <= 0 means
	// DefaultHotStreak.
	HotStreak int
	// Prefix is the summed-area cube to fall back on; nil means New
	// integrates one from its dense cube.
	Prefix *datacube.PrefixCube
	// Parallelism caps background build workers; <= 0 means GOMAXPROCS.
	Parallelism int
}

// Defaults for Config's zero fields.
const (
	DefaultBudget    = 64 << 20
	DefaultHotStreak = 8
)

// maxSessions bounds the per-session template-tracking map; past it the
// map resets wholesale (streaks restart, indexes stay cached in the
// store), so an adversarial session-id stream cannot grow memory.
const maxSessions = 8192

// session is one client's drag-detection state: the last template seen,
// how many consecutive queries matched it, and a cached pointer to its
// materialized index so the hot path touches no locks or map lookups
// while the template holds.
type session struct {
	mu         sync.Mutex
	hasTpl     bool
	moved      int
	tplLo      []int
	tplHi      []int
	streak     int
	key        string         // template store key, built on template change
	idx        *TemplateIndex // cached swap-in, revalidated against evictEpoch
	epoch      uint64
	lastLookup int // streak value at the last store lookup, to avoid one per query
}

// Planner answers each brush from its session template's materialized
// index when one is built, else from the prefix cube, and materializes
// indexes for templates a session keeps re-issuing. Safe for concurrent
// use.
type Planner struct {
	tbl    *storage.Table
	dims   []datacube.Dim
	binFns []func(row int) int
	prefix *datacube.PrefixCube

	// store is the byte-budgeted LRU of materialized indexes, keyed by
	// template, guarded by storeMu.
	storeMu sync.Mutex
	store   *opt.ResultLRU

	// buildMu guards building and closed; buildSlot runs the background
	// builds one at a time.
	buildMu   sync.Mutex
	building  map[string]bool
	closed    bool
	wg        sync.WaitGroup
	buildSlot sync.Mutex

	sessMu   sync.Mutex
	sessions map[string]*session

	hotStreak   int
	parallelism int

	choices          [numLive]atomic.Int64
	materializations atomic.Int64
	evictEpoch       atomic.Uint64
	indexCount       atomic.Int64
	indexBytes       atomic.Int64
}

// New builds a planner over the backing table and its cube dimensions. The
// prefix cube is cfg.Prefix or, when that is nil, integrated from cube; one
// of the two must be given. Every dimension must name a numeric column of
// tbl.
func New(tbl *storage.Table, cube *datacube.Cube, dims []datacube.Dim, cfg Config) (*Planner, error) {
	if tbl == nil {
		return nil, fmt.Errorf("planner: nil table")
	}
	if len(dims) == 0 {
		return nil, fmt.Errorf("planner: no dimensions")
	}
	if len(dims) > 32 {
		return nil, fmt.Errorf("planner: at most 32 dimensions (got %d)", len(dims))
	}
	prefix := cfg.Prefix
	if prefix == nil {
		if cube == nil {
			return nil, fmt.Errorf("planner: no prefix cube and no dense cube to integrate one from")
		}
		prefix = datacube.NewPrefix(cube)
	}
	p := &Planner{
		tbl:         tbl,
		dims:        dims,
		prefix:      prefix,
		building:    map[string]bool{},
		sessions:    map[string]*session{},
		hotStreak:   cfg.HotStreak,
		parallelism: cfg.Parallelism,
	}
	if p.hotStreak <= 0 {
		p.hotStreak = DefaultHotStreak
	}
	if p.parallelism <= 0 {
		p.parallelism = runtime.GOMAXPROCS(0)
	}
	budget := cfg.Budget
	if budget <= 0 {
		budget = DefaultBudget
	}
	p.store = opt.NewByteLRU(budget, nil)
	p.store.SetOnEvict(func(_ string, val any) {
		p.indexCount.Add(-1)
		p.indexBytes.Add(-val.(*TemplateIndex).ApproxBytes())
		p.evictEpoch.Add(1)
	})
	var err error
	if p.binFns, err = datacube.Binners(tbl, dims); err != nil {
		return nil, fmt.Errorf("planner: %w", err)
	}
	return p, nil
}

// Answer computes every dimension's filtered histogram plus the filtered
// total into hists (one pre-sized slice per dimension): from the session
// template's index if it is built, else from the prefix cube. No model, no
// measurement — the index reads Σ bins cells where the cube reads
// Σ bins·2^(d-1) + 2^d, which is no fewer for every d ≥ 1. sessionID scopes
// drag detection; moved is the dimension the client is dragging (any
// out-of-range value disables template tracking for this query — it is
// wire input, not trusted). The two answers are bit-identical, so the
// choice is invisible in the response.
func (p *Planner) Answer(sessionID string, moved int, filters []*datacube.Range, hists [][]int64) (int64, Structure, error) {
	choice := PrefixCube
	var total int64
	var err error
	if idx := p.trackTemplate(sessionID, moved, filters); idx != nil {
		choice = MatIndex
		total, err = idx.AnswerInto(filters, hists)
	} else {
		total, err = p.prefix.BrushInto(filters, hists)
	}
	if err != nil {
		return 0, choice, err
	}
	p.choices[choice].Add(1)
	return total, choice, nil
}

// trackTemplate advances sessionID's drag detection for this query and
// returns the template's materialized index if one is ready, else nil
// (possibly after kicking off a background build).
func (p *Planner) trackTemplate(sessionID string, moved int, filters []*datacube.Range) *TemplateIndex {
	tplLo, tplHi, ok := TemplateOf(p.dims, moved, filters)
	if !ok {
		return nil
	}
	sess := p.getSession(sessionID)
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.hasTpl && sess.moved == moved && eqInts(sess.tplLo, tplLo) && eqInts(sess.tplHi, tplHi) {
		sess.streak++
	} else {
		sess.hasTpl = true
		sess.moved = moved
		sess.tplLo, sess.tplHi = tplLo, tplHi
		sess.streak = 1
		sess.key = templateKey(moved, tplLo, tplHi)
		sess.idx = nil
		sess.lastLookup = 0
	}
	if sess.idx != nil {
		// Revalidate the cached pointer only when an eviction happened
		// since it was taken; the common drag step pays one atomic load.
		if e := p.evictEpoch.Load(); e != sess.epoch {
			sess.idx, sess.epoch = p.lookupIndex(sess.key)
		}
		return sess.idx
	}
	if sess.streak < p.hotStreak {
		return nil
	}
	// Hot template without a cached index: look for one (at most once per
	// query is fine — the streak gate means this path is rare), and build
	// it if the store has none.
	if sess.streak > sess.lastLookup {
		sess.lastLookup = sess.streak
		sess.idx, sess.epoch = p.lookupIndex(sess.key)
		if sess.idx == nil {
			p.maybeMaterialize(sess.key, moved, tplLo, tplHi)
		}
	}
	return sess.idx
}

// lookupIndex fetches a materialized index from the store, returning the
// eviction epoch observed before the read (so a concurrent eviction forces
// the next revalidation rather than being missed).
func (p *Planner) lookupIndex(key string) (*TemplateIndex, uint64) {
	epoch := p.evictEpoch.Load()
	p.storeMu.Lock()
	v, ok := p.store.Get(key)
	p.storeMu.Unlock()
	if !ok {
		return nil, epoch
	}
	return v.(*TemplateIndex), epoch
}

// getSession returns sessionID's tracking state, creating it on first
// sight and resetting the whole map past maxSessions.
func (p *Planner) getSession(id string) *session {
	p.sessMu.Lock()
	defer p.sessMu.Unlock()
	if s, ok := p.sessions[id]; ok {
		return s
	}
	if len(p.sessions) >= maxSessions {
		p.sessions = map[string]*session{}
	}
	s := &session{}
	p.sessions[id] = s
	return s
}

// maybeMaterialize starts a single-flight background build of the
// template's index. The hot path never blocks on it: queries keep riding
// the prefix cube until the built index lands in the store.
func (p *Planner) maybeMaterialize(key string, moved int, tplLo, tplHi []int) {
	p.buildMu.Lock()
	defer p.buildMu.Unlock()
	if p.closed || p.building[key] {
		return
	}
	p.building[key] = true
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		p.buildSlot.Lock()
		defer p.buildSlot.Unlock()
		idx, err := BuildTemplateIndex(context.Background(), p.tbl, p.dims, moved, tplLo, tplHi, p.binFns, p.parallelism)
		if err == nil {
			p.storeMu.Lock()
			if p.store.Put(key, idx) {
				p.indexCount.Add(1)
				p.indexBytes.Add(idx.ApproxBytes())
				p.materializations.Add(1)
			}
			p.storeMu.Unlock()
		}
		p.buildMu.Lock()
		delete(p.building, key)
		p.buildMu.Unlock()
	}()
}

// WaitBuilds blocks until every background build in flight has finished —
// the determinism hook for tests and benchmarks that need the swap-in to
// have happened.
func (p *Planner) WaitBuilds() { p.wg.Wait() }

// Close stops accepting new background builds and waits for in-flight
// ones, so a draining server leaks no goroutines.
func (p *Planner) Close() {
	p.buildMu.Lock()
	p.closed = true
	p.buildMu.Unlock()
	p.wg.Wait()
}

// templateKey renders a template identity for the store:
// "m<moved>|lo:hi|..." with "_" for the moved dimension's slot.
func templateKey(moved int, lo, hi []int) string {
	b := make([]byte, 0, 8+8*len(lo))
	b = append(b, 'm')
	b = strconv.AppendInt(b, int64(moved), 10)
	for i := range lo {
		b = append(b, '|')
		if i == moved {
			b = append(b, '_')
			continue
		}
		b = strconv.AppendInt(b, int64(lo[i]), 10)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(hi[i]), 10)
	}
	return string(b)
}

func eqInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Stats is a point-in-time snapshot of the planner's decisions and
// materialization economy, embedded in the serving layer's /metrics JSON.
type Stats struct {
	Choices          map[string]int64 `json:"choices"`
	Materializations int64            `json:"materializations"`
	IndexCount       int64            `json:"index_count"`
	IndexBytes       int64            `json:"index_bytes"`
	StoreBytes       int64            `json:"store_bytes"`
	BudgetBytes      int64            `json:"budget_bytes"`
	Evictions        int64            `json:"evictions"`
}

// Stats snapshots the planner's counters. Both live structures appear in
// Choices (zero-valued when never chosen) so metric series are stable.
func (p *Planner) Stats() *Stats {
	st := &Stats{
		Choices:          make(map[string]int64, numLive),
		Materializations: p.materializations.Load(),
		IndexCount:       p.indexCount.Load(),
		IndexBytes:       p.indexBytes.Load(),
	}
	for s := Structure(0); s < numLive; s++ {
		st.Choices[s.String()] = p.choices[s].Load()
	}
	p.storeMu.Lock()
	st.StoreBytes = p.store.Bytes()
	st.BudgetBytes = p.store.MaxBytes()
	st.Evictions = p.store.Evictions()
	p.storeMu.Unlock()
	return st
}
