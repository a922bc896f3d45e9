package planner

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/colstore"
	"repro/internal/datacube"
	"repro/internal/morsel"
	"repro/internal/opt"
	"repro/internal/storage"
)

// Config tunes a Planner. The zero value means: default cost model, 64 MB
// byte budget, hot streak of 8, eager prefix cube required from the
// caller, GOMAXPROCS build parallelism, one background build at a time.
type Config struct {
	// Model predicts per-structure latency; nil means DefaultModel().
	Model *CostModel
	// Budget bounds the shared store (materialized indexes + cached
	// results) in approximate resident bytes; <= 0 means DefaultBudget.
	Budget int64
	// HotStreak is how many consecutive same-template queries a session
	// must issue before its template is materialized; <= 0 means
	// DefaultHotStreak.
	HotStreak int
	// Prefix installs an eagerly built summed-area cube. Leave nil with
	// LazyPrefix to defer that build off the startup path.
	Prefix *datacube.PrefixCube
	// LazyPrefix builds the prefix cube asynchronously on first demand
	// instead of requiring it up front.
	LazyPrefix bool
	// Parallelism caps background build workers; <= 0 means GOMAXPROCS.
	Parallelism int
	// MaxBuilds caps concurrent background materializations; <= 0 means 1.
	MaxBuilds int
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
	key        string         // template store key ("ix|..."), built on template change
	idx        *TemplateIndex // cached swap-in, revalidated against evictEpoch
	epoch      uint64
	lastLookup int // streak value at the last store lookup, to avoid one per query
}

// Planner picks the cheapest available answer structure per brush query
// and materializes per-selection indexes for templates a session keeps
// re-issuing. Safe for concurrent use.
type Planner struct {
	tbl    *storage.Table
	cube   *datacube.Cube
	dims   []datacube.Dim
	binFns []func(row int) int
	model  *CostModel

	prefix         atomic.Pointer[datacube.PrefixCube]
	lazyPrefix     bool
	prefixBuilding atomic.Bool
	prefixBuilds   atomic.Int64

	// store is the single byte-budgeted LRU shared by materialized
	// indexes ("ix|" keys) and caller-cached results, guarded by storeMu.
	storeMu sync.Mutex
	store   *opt.ResultLRU

	buildMu  sync.Mutex
	building map[string]bool
	closed   bool
	wg       sync.WaitGroup
	sem      chan struct{}

	sessMu   sync.Mutex
	sessions map[string]*session

	hotStreak   int
	parallelism int

	matUnits    float64 // Σ bins: one MatIndex answer
	prefixUnits float64 // Σ bins·2^(d-1) + 2^d: one prefix-cube answer
	scanUnits   float64 // rows·dims: one engine scan

	choices          [numStructures]atomic.Int64
	materializations atomic.Int64
	evictEpoch       atomic.Uint64
	indexCount       atomic.Int64
	indexBytes       atomic.Int64
}

// New builds a planner over the backing table and its cube dimensions.
// cube may be nil (no dense-cube candidate); a prefix cube comes from
// cfg.Prefix or, with cfg.LazyPrefix, is built in the background on first
// demand. Every dimension must name a numeric column of tbl.
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
	if cfg.Prefix == nil && !cfg.LazyPrefix && cube == nil {
		// Workable (engine scan always answers) but almost certainly a
		// wiring mistake: the planner would never beat the legacy path.
		return nil, fmt.Errorf("planner: no prefix cube, no dense cube, and LazyPrefix off")
	}
	p := &Planner{
		tbl:         tbl,
		cube:        cube,
		dims:        dims,
		model:       cfg.Model,
		lazyPrefix:  cfg.LazyPrefix,
		building:    map[string]bool{},
		sessions:    map[string]*session{},
		hotStreak:   cfg.HotStreak,
		parallelism: cfg.Parallelism,
	}
	if p.model == nil {
		p.model = DefaultModel()
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
	p.store.SetOnEvict(func(key string, val any) {
		if strings.HasPrefix(key, ixPrefix) {
			if idx, ok := val.(*TemplateIndex); ok {
				p.indexCount.Add(-1)
				p.indexBytes.Add(-idx.ApproxBytes())
			}
			p.evictEpoch.Add(1)
		}
	})
	maxBuilds := cfg.MaxBuilds
	if maxBuilds <= 0 {
		maxBuilds = 1
	}
	p.sem = make(chan struct{}, maxBuilds)
	if cfg.Prefix != nil {
		p.prefix.Store(cfg.Prefix)
	}
	fns, err := binners(tbl, dims)
	if err != nil {
		return nil, err
	}
	p.binFns = fns

	nd := len(dims)
	for _, d := range dims {
		p.matUnits += float64(d.Bins)
		p.prefixUnits += float64(d.Bins) * float64(int(1)<<(nd-1))
	}
	p.prefixUnits += float64(int(1) << nd)
	p.scanUnits = float64(tbl.NumRows()) * float64(nd)
	return p, nil
}

// binners compiles one bin-of-row function per dimension, with the same
// colstore awareness as the cube builds (code LUT for coded columns,
// borrowed raw slice for frozen floats, Float fallback) — one binning
// definition across every structure is what makes them interchangeable
// bit for bit.
func binners(tbl *storage.Table, dims []datacube.Dim) ([]func(row int) int, error) {
	n := tbl.NumRows()
	fns := make([]func(row int) int, len(dims))
	for i, d := range dims {
		col := tbl.Column(d.Name)
		if col == nil || col.Type == storage.String {
			return nil, fmt.Errorf("planner: no numeric column %q", d.Name)
		}
		d := d
		if enc, ok := colstore.Of(col); ok && n > 0 {
			if coded, isCoded := enc.(colstore.Coded); isCoded && coded.CodeSpan() < 1<<22 {
				codes := coded.Codes()
				lut := make([]int32, coded.CodeSpan()+1)
				for code := range lut {
					lut[code] = int32(binOf(d, coded.DecodeFloat(uint64(code))))
				}
				fns[i] = func(row int) int { return int(lut[codes.Get(row)]) }
				continue
			}
			if fs, ok := colstore.FloatSliceOf(col); ok {
				fns[i] = func(row int) int { return binOf(d, fs[row]) }
				continue
			}
		}
		fns[i] = func(row int) int { return binOf(d, col.Float(row)) }
	}
	return fns, nil
}

// ixPrefix namespaces materialized indexes inside the shared store.
const ixPrefix = "ix|"

// Model returns the planner's cost model (shared with crossfilter's
// ScanChooser wiring).
func (p *Planner) Model() *CostModel { return p.model }

// Dims returns the planner's dimension descriptors.
func (p *Planner) Dims() []datacube.Dim { return p.dims }

// CacheGet reads a caller-cached value from the shared byte-budgeted
// store.
func (p *Planner) CacheGet(key string) (any, bool) {
	p.storeMu.Lock()
	defer p.storeMu.Unlock()
	return p.store.Get(key)
}

// CachePut stores a caller value in the shared store, under the same byte
// budget the materialized indexes draw from. Reports whether it fit.
func (p *Planner) CachePut(key string, val any) bool {
	p.storeMu.Lock()
	defer p.storeMu.Unlock()
	return p.store.Put(key, val)
}

// Answer computes every dimension's filtered histogram plus the filtered
// total into hists (one pre-sized slice per dimension), via the cheapest
// structure the cost model predicts among those that exist right now.
// sessionID scopes drag detection; moved is the dimension the client is
// dragging (any out-of-range value disables template tracking for this
// query — it is wire input, not trusted). The result is bit-identical
// across every structure, so the choice is invisible in the response.
func (p *Planner) Answer(sessionID string, moved int, filters []*datacube.Range, hists [][]int64) (int64, Structure, error) {
	nd := len(p.dims)
	if len(filters) != nd || len(hists) != nd {
		return 0, -1, fmt.Errorf("planner: %d filters / %d hists for %d dimensions", len(filters), len(hists), nd)
	}
	var loBuf, hiBuf [32]int
	lo, hi := loBuf[:nd], hiBuf[:nd]
	empty := false
	boxCells := 1
	for i, d := range p.dims {
		if len(hists[i]) != d.Bins {
			return 0, -1, fmt.Errorf("planner: hist %d has %d bins, want %d", i, len(hists[i]), d.Bins)
		}
		lo[i], hi[i] = 0, d.Bins-1
		if filters[i] != nil {
			lo[i], hi[i] = BinRange(d, *filters[i])
			if lo[i] > hi[i] {
				empty = true
			}
		}
		if !empty {
			boxCells *= hi[i] - lo[i] + 1
		}
	}
	if empty {
		boxCells = 0
	}

	idx := p.trackTemplate(sessionID, moved, filters)
	if p.lazyPrefix && p.prefix.Load() == nil {
		p.maybeBuildPrefix()
	}

	var cands [4]Candidate
	n := 0
	if idx != nil {
		cands[n] = Candidate{MatIndex, p.matUnits}
		n++
	}
	if p.prefix.Load() != nil {
		cands[n] = Candidate{PrefixCube, p.prefixUnits}
		n++
	}
	if p.cube != nil {
		cands[n] = Candidate{DenseCube, float64(boxCells * nd)}
		n++
	}
	cands[n] = Candidate{EngineScan, p.scanUnits}
	n++

	choice, _ := p.model.Choose(cands[:n])
	units := 0.0
	for _, c := range cands[:n] {
		if c.S == choice {
			units = c.Units
			break
		}
	}

	start := time.Now()
	var total int64
	var err error
	switch choice {
	case MatIndex:
		total, err = idx.AnswerInto(filters, hists)
	case PrefixCube:
		total, err = p.prefix.Load().BrushInto(filters, hists)
	case DenseCube:
		for d := 0; d < nd && err == nil; d++ {
			err = p.cube.HistogramInto(d, filters, hists[d])
		}
		if err == nil {
			for _, v := range hists[0] {
				total += v
			}
		}
	default:
		total = p.scanAnswer(lo, hi, boxCells == 0, hists)
	}
	if err != nil {
		return 0, choice, err
	}
	p.model.Observe(choice, units, time.Since(start))
	p.choices[choice].Add(1)
	return total, choice, nil
}

// trackTemplate advances sessionID's drag detection for this query and
// returns the template's materialized index if one is ready, else nil
// (possibly after kicking off a background build).
func (p *Planner) trackTemplate(sessionID string, moved int, filters []*datacube.Range) *TemplateIndex {
	if moved < 0 || moved >= len(p.dims) {
		return nil
	}
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

// lookupIndex fetches a materialized index from the shared store,
// returning the eviction epoch observed before the read (so a
// concurrent eviction forces the next revalidation rather than being
// missed).
func (p *Planner) lookupIndex(key string) (*TemplateIndex, uint64) {
	epoch := p.evictEpoch.Load()
	p.storeMu.Lock()
	v, ok := p.store.Get(key)
	p.storeMu.Unlock()
	if !ok {
		return nil, epoch
	}
	idx, _ := v.(*TemplateIndex)
	return idx, epoch
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
// the current best structure until the built index lands in the store.
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
		p.sem <- struct{}{}
		defer func() { <-p.sem }()
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

// maybeBuildPrefix starts the single-flight deferred prefix-cube build:
// from the dense cube when one exists (an O(cells) integration), else a
// full table build. Queries ride the other structures until the swap-in.
func (p *Planner) maybeBuildPrefix() {
	if !p.prefixBuilding.CompareAndSwap(false, true) {
		return
	}
	p.buildMu.Lock()
	if p.closed {
		p.buildMu.Unlock()
		p.prefixBuilding.Store(false)
		return
	}
	p.wg.Add(1)
	p.buildMu.Unlock()
	go func() {
		defer p.wg.Done()
		var pc *datacube.PrefixCube
		if p.cube != nil {
			pc = datacube.NewPrefix(p.cube)
		} else {
			pc, _ = datacube.BuildPrefix(p.tbl, p.dims, p.parallelism)
		}
		if pc != nil {
			p.prefix.Store(pc)
			p.prefixBuilds.Add(1)
		}
	}()
}

// scanAnswer is the engine-scan executor (and differential oracle's
// production twin): one morsel-parallel pass binning every row, counting
// rows inside the full bin box into the total and into every dimension's
// histogram. Per-worker partials merge by addition, so the answer is
// identical at every parallelism level.
func (p *Planner) scanAnswer(lo, hi []int, empty bool, hists [][]int64) int64 {
	nd := len(p.dims)
	for d := range hists {
		for b := range hists[d] {
			hists[d][b] = 0
		}
	}
	if empty {
		return 0
	}
	offs := make([]int, nd)
	totBins := 0
	for d, dim := range p.dims {
		offs[d] = totBins
		totBins += dim.Bins
	}
	n := p.tbl.NumRows()
	workers := 1
	if p.parallelism != 1 && n >= 2*morsel.Size {
		workers = morsel.Workers(p.parallelism, n)
	}
	parts := make([][]int64, workers)
	totals := make([]int64, workers)
	for w := range parts {
		parts[w] = make([]int64, totBins)
	}
	morsel.Run(n, workers, func(w, _, rlo, rhi int) {
		var bins [32]int
		flat := parts[w]
		var tot int64
		for row := rlo; row < rhi; row++ {
			pass := true
			for i := 0; i < nd; i++ {
				b := p.binFns[i](row)
				if b < lo[i] || b > hi[i] {
					pass = false
					break
				}
				bins[i] = b
			}
			if !pass {
				continue
			}
			tot++
			for i := 0; i < nd; i++ {
				flat[offs[i]+bins[i]]++
			}
		}
		totals[w] += tot
	})
	var total int64
	for w := 0; w < workers; w++ {
		total += totals[w]
		for d := 0; d < nd; d++ {
			hv := hists[d]
			part := parts[w][offs[d] : offs[d]+len(hv)]
			for b, v := range part {
				hv[b] += v
			}
		}
	}
	return total
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

// templateKey renders a template identity for the shared store:
// "ix|m<moved>|lo:hi|..." with "_" for the moved dimension's slot.
func templateKey(moved int, lo, hi []int) string {
	b := make([]byte, 0, 8+8*len(lo))
	b = append(b, ixPrefix...)
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
	PrefixBuilds     int64            `json:"prefix_builds"`
	IndexCount       int64            `json:"index_count"`
	IndexBytes       int64            `json:"index_bytes"`
	StoreBytes       int64            `json:"store_bytes"`
	BudgetBytes      int64            `json:"budget_bytes"`
	Evictions        int64            `json:"evictions"`
}

// Stats snapshots the planner's counters. Every structure appears in
// Choices (zero-valued when never chosen) so metric series are stable.
func (p *Planner) Stats() *Stats {
	st := &Stats{
		Choices:          make(map[string]int64, numStructures),
		Materializations: p.materializations.Load(),
		PrefixBuilds:     p.prefixBuilds.Load(),
		IndexCount:       p.indexCount.Load(),
		IndexBytes:       p.indexBytes.Load(),
	}
	for _, s := range Structures() {
		st.Choices[s.String()] = p.choices[s].Load()
	}
	p.storeMu.Lock()
	st.StoreBytes = p.store.Bytes()
	st.BudgetBytes = p.store.MaxBytes()
	st.Evictions = p.store.Evictions()
	p.storeMu.Unlock()
	return st
}
