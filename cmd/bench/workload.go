package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/behavior"
	"repro/internal/dataset"
	"repro/internal/device"
	"repro/internal/opt"
	"repro/internal/serve"
	"repro/internal/widget"
)

// datasetSeed is the served table's generator seed. It is fixed: --seed
// varies the requests the server receives, never the data it holds, so
// peak_rss_mb and setup_s compare like with like across seeds.
const datasetSeed = 1

// sessions is the number of connections, one session each.
const sessions = 2

// sqlStrata are the upper edges of the selectivity buckets a session's SQL
// requests are drawn into (the last bucket runs to 1). A histogram query's
// cost follows how much of the table its predicates keep, which over
// simulated users runs from nothing (two in five settled slider states) to
// nearly everything; the percentiles of a few hundred unconstrained draws
// from so wide a distribution move by 10–20% from one seed to the next.
// So every seed draws fresh states, but the same number into each bucket,
// and every run of len(sqlStrata)+1 consecutive SQL requests of a session
// holds one from each bucket in an order the seed decides: any pass, of any
// length, times the same mix of selectivities to within one request per
// bucket. The edges sit near the population's 39th, 48th, 60th, 70th, 80th,
// 88th and 94th percentiles.
var sqlStrata = [...]float64{0.002, 0.03, 0.08, 0.16, 0.31, 0.50, 0.75}

const numStrata = len(sqlStrata) + 1

func stratumOf(selectivity float64) int {
	for i, edge := range sqlStrata {
		if selectivity < edge {
			return i
		}
	}
	return len(sqlStrata)
}

type kind uint8

const (
	kindBrush kind = iota
	kindTile
	kindSQL
)

func (k kind) String() string { return [...]string{"brush", "tile", "sql"}[k] }

// seqKey is the response field that echoes the request's seq.
func (k kind) seqKey() string {
	if k == kindBrush {
		return `"applied_seq":`
	}
	return `"seq":`
}

// request is one scripted request: the bytes that go on the wire and the
// inputs they were made from, which the oracle and the layer replays use.
type request struct {
	kind   kind
	wire   []byte // complete HTTP/1.1 request, seq field blank
	seqOff int    // offset of the seqWidth-byte seq field in wire
	pad    byte

	// The slider state the request was issued under (nil = unfiltered)
	// and the slider that moved; every kind carries them, so the layer
	// replays can turn any request into a brush or a query.
	ranges []*[2]float64
	moved  int
	sql    string
	tile   widget.Tile
	// selectivity is the share of rows an SQL request's predicates keep.
	selectivity float64
}

// workload is one traffic mix against one server configuration.
type workload struct {
	name string
	why  string
	// The server configuration: idevald's -rows, -shards, -router, -encode
	// and -planner. The oracle and the layer replays read the same fields.
	rows    int
	shards  int
	router  int
	encode  bool
	planner bool
	// rate is the paced passes' aggregate request rate over both sessions.
	rate float64
	// Of every ten requests, tiles are GET /v1/tiles, sqls are POST
	// /v1/query, the rest are brushes.
	tiles, sqls int
	// verify is how many requests per session the verify phase compares
	// with the oracle.
	verify int
}

var workloads = []workload{
	{
		name: "drag_inproc",
		why:  "brush drags answered by a microsecond prefix-cube lookup, so nearly all server time is the serve layer: serve gains show here, kernel gains must not",
		rows: dataset.RoadCount, rate: 400, verify: 100,
	},
	{
		name: "drag_router",
		why:  "the same drag script through -router 2: adds the router process hop and shard merge to identical work, so the difference to drag_inproc is the hop cost",
		rows: dataset.RoadCount, router: 2, rate: 400, verify: 100,
	},
	{
		name: "scan_shards",
		why:  "SQL histograms over 500k encoded rows on 2 in-process shards: sql, engine, colstore, morsel and shard do the work, so kernel gains show here and nowhere else",
		rows: 500000, shards: 2, encode: true, rate: 60, sqls: 10, verify: 24,
	},
	{
		name: "mixed_planner",
		why:  "80% brushes, 10% cached tiles, 10% SQL with -planner: the same serve and engine used differently, so a brush gain that costs tiles, SQL or memory shows",
		rows: dataset.RoadCount, planner: true, rate: 200, tiles: 1, sqls: 1, verify: 100,
	},
}

// serverArgs are the idevald flags for the workload.
func (w workload) serverArgs() []string {
	args := []string{"-dataset", "road", "-rows", strconv.Itoa(w.rows)}
	if w.shards > 1 {
		args = append(args, "-shards", strconv.Itoa(w.shards))
	}
	if w.router > 1 {
		args = append(args, "-router", strconv.Itoa(w.router))
	}
	if w.encode {
		args = append(args, "-encode")
	}
	if w.planner {
		args = append(args, "-planner")
	}
	return args
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// gauge measures a slider state's selectivity: the share of rows inside
// every one of its ranges. It holds a small table from the served table's
// generator, whose fractions are those of the table at any size.
type gauge struct {
	cols [][]float64 // one slice per slider dimension
}

const gaugeRows = 20000

func newGauge() *gauge {
	t := dataset.Roads(datasetSeed, gaugeRows)
	g := &gauge{}
	for _, d := range serve.RoadLoadDims() {
		c := t.Column(d.Column)
		vals := make([]float64, gaugeRows)
		for i := range vals {
			vals[i] = c.Float(i)
		}
		g.cols = append(g.cols, vals)
	}
	return g
}

func (g *gauge) selectivity(ranges []*[2]float64) float64 {
	kept := 0
rows:
	for i := 0; i < gaugeRows; i++ {
		for d, r := range ranges {
			if v := g.cols[d][i]; r != nil && (v < r[0] || v > r[1]) {
				continue rows
			}
		}
		kept++
	}
	return float64(kept) / gaugeRows
}

// script generates n requests for each session. The same (workload, seed,
// n) always yields byte-identical scripts, and no SQL statement twice.
func (w workload) script(seed int64, n int) [sessions][]*request {
	var out [sessions][]*request
	var g *gauge
	if w.sqls > 0 {
		g = newGauge()
	}
	for s := range out {
		out[s] = w.sessionScript(seed, s, n, g)
	}
	return out
}

func (w workload) sessionScript(seed int64, sess, n int, g *gauge) []*request {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(sess)*7919))
	domains := sliderDomains()
	name := fmt.Sprintf("s%d", sess)
	reqs := make([]*request, 0, n)
	var states [numStrata][]*request
	if w.sqls > 0 {
		// The SQL states come from their own stream of simulated users, so
		// how many had to be drawn does not shift the drags. A last block
		// of fewer than ten requests can hold up to w.sqls more.
		sqlRNG := rand.New(rand.NewSource(seed*1000003 + int64(sess)*7919 + 1))
		states = stratifiedStates(sqlRNG, domains, g, (n*w.sqls/10+w.sqls)/numStrata+1)
	}
	nSQL := 0
	var kinds [10]kind
	var strata [numStrata]int
	for len(reqs) < n {
		// One simulated user session at a time; a new user starts from
		// unfiltered sliders, as a page reload would.
		user := behavior.SimulateSliderUser(rng, device.Mouse, domains, 8)
		ranges := make([]*[2]float64, len(domains))
		for _, ev := range user.Events {
			if len(reqs) == n {
				break
			}
			if ev.SliderIdx < 0 || ev.SliderIdx >= len(ranges) {
				continue
			}
			ranges[ev.SliderIdx] = &[2]float64{ev.MinVal, ev.MaxVal}
			if len(reqs)%10 == 0 {
				// The mix is exact within every block of ten, in an order
				// the seed decides.
				for i := range kinds {
					switch {
					case i < w.tiles:
						kinds[i] = kindTile
					case i < w.tiles+w.sqls:
						kinds[i] = kindSQL
					default:
						kinds[i] = kindBrush
					}
				}
				rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
			}
			r := &request{kind: kinds[len(reqs)%10], ranges: snapshot(ranges), moved: ev.SliderIdx}
			switch r.kind {
			case kindTile:
				r.tile = randomTile(rng)
				r.tileWire(name)
			case kindSQL:
				if nSQL%numStrata == 0 {
					// One state from every bucket in each block of numStrata,
					// in an order the seed decides.
					for i := range strata {
						strata[i] = i
					}
					rng.Shuffle(len(strata), func(i, j int) { strata[i], strata[j] = strata[j], strata[i] })
				}
				st := states[strata[nSQL%numStrata]][nSQL/numStrata]
				nSQL++
				r.ranges, r.moved, r.sql, r.selectivity = st.ranges, st.moved, st.sql, st.selectivity
				r.sqlWire(name)
			default:
				r.brushWire(name)
			}
			reqs = append(reqs, r)
		}
	}
	return reqs
}

func sliderDomains() [][2]float64 {
	var out [][2]float64
	for _, d := range serve.RoadLoadDims() {
		out = append(out, [2]float64{d.Lo, d.Hi})
	}
	return out
}

// stratifiedStates simulates slider users and keeps the slider state each
// time a handle comes to rest — what a debounced frontend would query for —
// until every selectivity bucket holds perStratum of them. A state whose
// statement was already kept (a handle pushed against its stop comes to
// rest where it was) is passed over.
func stratifiedStates(rng *rand.Rand, domains [][2]float64, g *gauge, perStratum int) [numStrata][]*request {
	var out [numStrata][]*request
	kept := map[string]bool{}
	for full := 0; full < numStrata; {
		user := behavior.SimulateSliderUser(rng, device.Mouse, domains, 8)
		ranges := make([]*[2]float64, len(domains))
		for i, ev := range user.Events {
			ranges[ev.SliderIdx] = &[2]float64{ev.MinVal, ev.MaxVal}
			// A drag samples every 8 ms; the user dwells 0.8 s or more
			// before the next one.
			if last := i == len(user.Events)-1; !last && user.Events[i+1].At-ev.At <= 400*time.Millisecond {
				continue
			}
			sel := g.selectivity(ranges)
			stmt := histogramSQL(ranges, ev.SliderIdx)
			if b := stratumOf(sel); len(out[b]) < perStratum && !kept[stmt] {
				kept[stmt] = true
				out[b] = append(out[b], &request{ranges: snapshot(ranges), moved: ev.SliderIdx, sql: stmt, selectivity: sel})
				if len(out[b]) == perStratum {
					full++
				}
			}
		}
	}
	return out
}

func snapshot(ranges []*[2]float64) []*[2]float64 {
	out := make([]*[2]float64, len(ranges))
	for i, r := range ranges {
		if r != nil {
			c := *r
			out[i] = &c
		}
	}
	return out
}

var seqBlank = bytes.Repeat([]byte{' '}, seqWidth)

func post(path string, body []byte, seqInBody int) ([]byte, int) {
	head := fmt.Sprintf("POST %s HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", path, len(body))
	return append([]byte(head), body...), len(head) + seqInBody
}

func (r *request) brushWire(session string) {
	rj, _ := json.Marshal(r.ranges) // floats and nils cannot fail to marshal
	prefix := fmt.Sprintf(`{"session":%q,"seq":`, session)
	body := fmt.Sprintf(`%s%s,"ranges":%s,"moved":%d}`, prefix, seqBlank, rj, r.moved)
	r.pad = ' '
	r.wire, r.seqOff = post("/v1/brush", []byte(body), len(prefix))
}

// histogramSQL is the paper's filtered 20-bin histogram query under a
// slider state, targeting the dimension after the one that moved.
func histogramSQL(ranges []*[2]float64, moved int) string {
	dims := serve.RoadLoadDims()
	full := make([][2]float64, len(dims))
	for i, d := range dims {
		full[i] = [2]float64{d.Lo, d.Hi}
		if ranges[i] != nil {
			full[i] = *ranges[i]
		}
	}
	stmt, err := opt.HistogramQuery("dataroad", dims, full, (moved+1)%len(dims), 20)
	if err != nil {
		panic(err) // dims and ranges are built side by side above
	}
	return stmt.String()
}

func (r *request) sqlWire(session string) {
	sj, _ := json.Marshal(r.sql)
	prefix := fmt.Sprintf(`{"session":%q,"seq":`, session)
	body := fmt.Sprintf(`%s%s,"sql":%s}`, prefix, seqBlank, sj)
	r.pad = ' '
	r.wire, r.seqOff = post("/v1/query", []byte(body), len(prefix))
}

func (r *request) tileWire(session string) {
	prefix := fmt.Sprintf("GET /v1/tiles?session=%s&seq=", session)
	r.pad = '0'
	r.wire = []byte(fmt.Sprintf("%s%s&key=%s HTTP/1.1\r\nHost: bench\r\n\r\n", prefix, seqBlank, r.tile))
	r.seqOff = len(prefix)
}

// randomTile picks a web-mercator tile at zoom 6–9 containing a uniformly
// drawn point of the road bounding box, so every tile holds data.
func randomTile(rng *rand.Rand) widget.Tile {
	lonLo, lonHi, latLo, latHi, _, _ := dataset.RoadBounds()
	lon := lonLo + rng.Float64()*(lonHi-lonLo)
	lat := latLo + rng.Float64()*(latHi-latLo)
	z := 6 + rng.Intn(4)
	n := math.Exp2(float64(z))
	x := int((lon + 180) / 360 * n)
	rad := lat * math.Pi / 180
	y := int((1 - math.Asinh(math.Tan(rad))/math.Pi) / 2 * n)
	return widget.Tile{Z: z, X: x, Y: y}
}

// scriptHash is the SHA-256 over every session's wire bytes in order.
func scriptHash(scripts [sessions][]*request) string {
	h := sha256.New()
	for _, s := range scripts {
		for _, r := range s {
			h.Write(r.wire)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
