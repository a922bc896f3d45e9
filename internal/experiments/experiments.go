// Package experiments reproduces every table and figure of the paper's
// evaluation. Each experiment regenerates its artifact from the simulated
// study population, renders rows in the paper's terms, and self-checks the
// headline shape (who wins, by roughly what factor, where the crossovers
// fall) against what the paper reports.
//
// The per-experiment index lives in DESIGN.md; EXPERIMENTS.md is generated
// from these reports via cmd/ideval.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/behavior"
	"repro/internal/dataset"
	"repro/internal/opt"
	"repro/internal/session"
	"repro/internal/storage"
)

// Config scales a reproduction run. Full reproduces the paper's sizes;
// Quick shrinks everything for tests and smoke runs.
type Config struct {
	Seed        int64
	Users       int           // study population (paper: 15, 30 for crossfilter)
	MovieTuples int           // paper: 4,000
	RoadTuples  int           // paper: 434,874
	SliderMoves int           // slider adjustments per crossfilter session
	SessionLen  time.Duration // composite-session minimum length (paper: 20 min)
}

// Full returns the paper-scale configuration.
func Full() Config {
	return Config{
		Seed:        1,
		Users:       15,
		MovieTuples: dataset.MovieCount,
		RoadTuples:  dataset.RoadCount,
		SliderMoves: 12,
		SessionLen:  20 * time.Minute,
	}
}

// Quick returns a configuration small enough for unit tests while
// preserving every qualitative shape.
func Quick() Config {
	return Config{
		Seed:        1,
		Users:       5,
		MovieTuples: 800,
		// Must exceed the disk profile's 2,048-page buffer pool (131,072
		// rows) or the disk/memory contrast — the case study's entire point
		// — disappears at test scale.
		RoadTuples:  150000,
		SliderMoves: 6,
		SessionLen:  8 * time.Minute,
	}
}

// Check is one shape assertion against the paper's reported result.
type Check struct {
	Name   string
	Pass   bool
	Detail string
}

// Report is an experiment's output.
type Report struct {
	ID     string
	Title  string
	Lines  []string
	Checks []Check
}

// Printf appends a formatted line to the report.
func (r *Report) Printf(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

// Check records a shape assertion.
func (r *Report) Check(name string, pass bool, format string, args ...any) {
	r.Checks = append(r.Checks, Check{Name: name, Pass: pass, Detail: fmt.Sprintf(format, args...)})
}

// Passed reports whether every check passed.
func (r *Report) Passed() bool {
	for _, c := range r.Checks {
		if !c.Pass {
			return false
		}
	}
	return true
}

// Render writes the report as text.
func (r *Report) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title)
	for _, l := range r.Lines {
		fmt.Fprintln(w, l)
	}
	for _, c := range r.Checks {
		status := "PASS"
		if !c.Pass {
			status = "FAIL"
		}
		fmt.Fprintf(w, "  [%s] %s: %s\n", status, c.Name, c.Detail)
	}
	fmt.Fprintln(w)
}

// Experiment regenerates one paper artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg Config, ctx *Context) (*Report, error)
}

// Registry lists all experiments in paper order. Populated by the per-case
// files' init functions.
var Registry []Experiment

// paperOrder fixes presentation order regardless of file init order.
var paperOrder = []string{
	"tab1_2", "tab3", "fig2", "fig3", "fig4_5", "tab4", "tab5_6",
	"fig7", "fig8", "fig9", "tab7", "fig10", "tab8",
	"fig11", "fig13", "fig14", "fig15",
	"tab9", "fig18", "tab10", "fig20", "fig21",
	"ext_progressive", "ext_scaleout", "ext_throughput", "ext_reuse", "ext_infoloss",
}

func register(e Experiment) {
	Registry = append(Registry, e)
	rank := func(id string) int {
		for i, o := range paperOrder {
			if o == id {
				return i
			}
		}
		return len(paperOrder)
	}
	sort.SliceStable(Registry, func(i, j int) bool {
		return rank(Registry[i].ID) < rank(Registry[j].ID)
	})
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range Registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns the registered experiment IDs in order.
func IDs() []string {
	out := make([]string, len(Registry))
	for i, e := range Registry {
		out[i] = e.ID
	}
	return out
}

// RunAll executes every experiment, writing reports to w as they finish.
func RunAll(cfg Config, w io.Writer) ([]*Report, error) {
	ctx := NewContext(cfg)
	var reports []*Report
	for _, e := range Registry {
		rep, err := e.Run(cfg, ctx)
		if err != nil {
			return reports, fmt.Errorf("experiment %s: %w", e.ID, err)
		}
		reports = append(reports, rep)
		if w != nil {
			rep.Render(w)
		}
	}
	return reports, nil
}

// Context caches the expensive shared inputs (datasets, simulated study
// traces) across experiments in one run, exactly as the paper's case
// studies reuse one collected trace set across figures.
type Context struct {
	cfg Config

	movies       *storage.Table
	roads        *storage.Table
	roadSample   *storage.Table
	scrollTraces []*behavior.ScrollTrace
	sliderRuns   map[string][]*behavior.SliderSession
	sessions     []*session.Session
	workloads    map[string][]opt.QueryEvent
	replays      map[string]*opt.ReplayResult
}

// NewContext creates an empty cache for one configuration.
func NewContext(cfg Config) *Context {
	return &Context{cfg: cfg, sliderRuns: map[string][]*behavior.SliderSession{}}
}

// Movies returns the shared movie table.
func (c *Context) Movies() *storage.Table {
	if c.movies == nil {
		c.movies = dataset.Movies(c.cfg.Seed, c.cfg.MovieTuples)
	}
	return c.movies
}

// Roads returns the shared road table.
func (c *Context) Roads() *storage.Table {
	if c.roads == nil {
		c.roads = dataset.Roads(c.cfg.Seed, c.cfg.RoadTuples)
	}
	return c.roads
}

// RoadSample returns a ~4,000-row stride sample of the road table used by
// the client-side KL approximation.
func (c *Context) RoadSample() *storage.Table {
	if c.roadSample == nil {
		c.roadSample = SampleTable(c.Roads(), 4000)
	}
	return c.roadSample
}

// SampleTable takes an every-kth-row sample of a table: up to n rows, one
// every NumRows/n, named after the table with a "_sample" suffix.
func SampleTable(t *storage.Table, n int) *storage.Table {
	total := t.NumRows()
	if n <= 0 || n > total {
		n = total
	}
	stride := max(total/max(n, 1), 1)
	rows := make([]int, 0, n)
	for i := 0; i < total && len(rows) < n; i += stride {
		rows = append(rows, i)
	}
	out := t.Take(rows)
	out.Name = t.Name + "_sample"
	return out
}

// ScrollTraces returns the shared scrolling-study traces (one per user).
func (c *Context) ScrollTraces() []*behavior.ScrollTrace {
	if c.scrollTraces == nil {
		for u := 0; u < c.cfg.Users; u++ {
			rng := newRNG(c.cfg.Seed, 1000+int64(u))
			p := behavior.NewScrollerParams(rng)
			c.scrollTraces = append(c.scrollTraces, behavior.SimulateScroller(rng, p, c.cfg.MovieTuples))
		}
	}
	return c.scrollTraces
}

// SliderSessions returns the shared crossfilter traces for one device (the
// paper recruited 10 users per device; we simulate Users per device).
func (c *Context) SliderSessions(deviceName string) []*behavior.SliderSession {
	if got := c.sliderRuns[deviceName]; got != nil {
		return got
	}
	lonLo, lonHi, latLo, latHi, altLo, altHi := dataset.RoadBounds()
	domains := [][2]float64{{lonLo, lonHi}, {latLo, latHi}, {altLo, altHi}}
	var runs []*behavior.SliderSession
	for u := 0; u < c.cfg.Users; u++ {
		rng := newRNG(c.cfg.Seed, 2000+int64(u)+int64(len(deviceName))*31)
		prof := deviceProfile(deviceName)
		runs = append(runs, behavior.SimulateSliderUser(rng, prof, domains, c.cfg.SliderMoves))
	}
	c.sliderRuns[deviceName] = runs
	return runs
}

// Sessions returns the shared composite-interface study traces.
func (c *Context) Sessions() []*session.Session {
	if c.sessions == nil {
		c.sessions = session.RunStudy(c.cfg.Seed+77, c.cfg.Users, c.cfg.SessionLen)
	}
	return c.sessions
}

// --- small shared helpers ----------------------------------------------------

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// fmtRange renders [lo, hi].
func fmtRange(lo, hi float64) string { return fmt.Sprintf("[%.3g, %.3g]", lo, hi) }

// sortedKeys returns map keys sorted for deterministic iteration.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// bar renders a crude ASCII bar for report histograms.
func bar(n, max, width int) string {
	if max <= 0 {
		return ""
	}
	w := n * width / max
	if n > 0 && w == 0 {
		w = 1
	}
	return strings.Repeat("#", w)
}
