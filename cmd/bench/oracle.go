package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/datacube"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/serve"
	"repro/internal/storage"
	"repro/internal/widget"
)

// oracle computes, inside the bench process and by the plainest route the
// repo offers, what the server must answer: brushes from a serially built
// prefix cube over plain columns, SQL from an engine pinned to parallelism
// 1 on the plain unsharded table, tiles from a direct row count.
type oracle struct {
	table  *storage.Table
	prefix *datacube.PrefixCube
	eng    *engine.Engine
}

func newOracle(rows int) (*oracle, error) {
	t := dataset.Roads(datasetSeed, rows)
	p, err := datacube.BuildPrefix(t, serve.RoadCubeDims(), 1)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	e := engine.New(engine.ProfileMemory)
	e.SetParallelism(1)
	e.Register(t)
	return &oracle{table: t, prefix: p, eng: e}, nil
}

func filtersOf(ranges []*[2]float64) []*datacube.Range {
	out := make([]*datacube.Range, len(ranges))
	for i, r := range ranges {
		if r != nil {
			out[i] = &datacube.Range{Lo: r[0], Hi: r[1]}
		}
	}
	return out
}

// check compares one response body with the oracle's answer. Brush and
// tile bodies must match byte for byte; a query body is compared on seq,
// columns and rows, because model_ms is a cost-model reading that
// legitimately differs between a sharded and an unsharded engine.
func (o *oracle) check(req *request, seq int64, body []byte) error {
	var want any
	switch req.kind {
	case kindBrush:
		filters := filtersOf(req.ranges)
		resp := serve.BrushResponse{AppliedSeq: seq}
		for d := 0; d < o.prefix.NumDims(); d++ {
			h, err := o.prefix.Histogram(d, filters)
			if err != nil {
				return err
			}
			resp.Histograms = append(resp.Histograms, h)
		}
		total, err := o.prefix.Count(filters)
		if err != nil {
			return err
		}
		resp.Total = total
		want = resp
	case kindTile:
		want = serve.TileResponse{Seq: seq, Key: req.tile.String(), Count: o.tileCount(req.tile)}
	case kindSQL:
		res, err := o.eng.Query(req.sql)
		if err != nil {
			return err
		}
		rows := make([][]any, len(res.Rows))
		for i, row := range res.Rows {
			for _, v := range row {
				rows[i] = append(rows[i], jsonValue(v))
			}
		}
		var got serve.QueryResponse
		if err := json.Unmarshal(body, &got); err != nil {
			return fmt.Errorf("decode query response: %w", err)
		}
		// Re-encode what the server said without model_ms; encoding/json
		// prints a float64 that came from an integer the way it prints the
		// integer, so both sides format alike.
		got.ModelMS = 0
		if body, err = json.Marshal(got); err != nil {
			return err
		}
		want = serve.QueryResponse{Seq: seq, Columns: res.Columns, Rows: rows}
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		return err
	}
	if body = bytes.TrimSpace(body); !bytes.Equal(body, wantJSON) {
		return fmt.Errorf("%s seq %d: server answered\n  %s\noracle says\n  %s", req.kind, seq, body, wantJSON)
	}
	return nil
}

func jsonValue(v storage.Value) any {
	switch v.Type {
	case storage.String:
		return v.S
	case storage.Int64:
		return v.I
	default:
		return v.F
	}
}

// tileCount counts rows inside the tile's web-mercator bounds (y is
// latitude, x longitude).
func (o *oracle) tileCount(t widget.Tile) int64 {
	n := math.Exp2(float64(t.Z))
	lngLo := float64(t.X)/n*360 - 180
	lngHi := float64(t.X+1)/n*360 - 180
	latHi := 180 / math.Pi * math.Atan(math.Sinh(math.Pi*(1-2*float64(t.Y)/n)))
	latLo := 180 / math.Pi * math.Atan(math.Sinh(math.Pi*(1-2*float64(t.Y+1)/n)))
	lat, lng := o.table.Column("y"), o.table.Column("x")
	var count int64
	for i := 0; i < o.table.NumRows(); i++ {
		la, lo := lat.Float(i), lng.Float(i)
		if la >= latLo && la < latHi && lo >= lngLo && lo < lngHi {
			count++
		}
	}
	return count
}

// verify sends the first count requests of every session's script, one
// session after the other, and checks every body against the oracle. It
// returns the SHA-256 over the brush bodies, which must be the same for
// every server configuration given the same script.
func verify(players []*player, o *oracle, count int) (string, error) {
	h := sha256.New()
	for i, p := range players {
		for j := 0; j < count; j++ {
			req, seq := p.next()
			status, body, err := p.conn.do(req, seq)
			if err != nil {
				return "", fmt.Errorf("verify session %d: %w", i, err)
			}
			if status != 200 {
				return "", fmt.Errorf("verify session %d %s seq %d: status %d: %s", i, req.kind, seq, status, body)
			}
			if err := o.check(req, seq, body); err != nil {
				return "", fmt.Errorf("verify session %d: %w", i, err)
			}
			if req.kind == kindBrush {
				h.Write(body)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
