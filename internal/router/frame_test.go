package router

import (
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/datacube"
	"repro/internal/dataset"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/storage"
)

// frameDims is the geometry the codec tests decode against: uneven bin
// counts, so a histogram landing in the wrong dimension cannot pass.
var frameDims = []datacube.Dim{
	{Name: "a", Lo: 0, Hi: 1, Bins: 3},
	{Name: "b", Lo: 0, Hi: 1, Bins: 1},
	{Name: "c", Lo: 0, Hi: 1, Bins: 4},
}

func frameHists() [][]int64 {
	return [][]int64{{1, -2, 3}, {math.MaxInt64}, {0, 0, math.MinInt64, 7}}
}

// payload strips a frame's length prefix after checking it.
func payload(t *testing.T, frame []byte) []byte {
	t.Helper()
	p, err := readFrame(bytes.NewReader(frame), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != len(frame)-frameHeader {
		t.Fatalf("length prefix says %d, frame carries %d", len(p), len(frame)-frameHeader)
	}
	return p
}

func TestFrameRequestRoundTrip(t *testing.T) {
	cases := map[string][]*datacube.Range{
		"unfiltered": {nil, nil, nil},
		"mixed":      {{Lo: 9, Hi: 10.5}, nil, {Lo: -3, Hi: -3}},
		// Bit patterns, not values, must survive: the child bins exactly
		// what the in-process oracle binned.
		"edge floats": {{Lo: math.Inf(-1), Hi: math.Inf(1)}, {Lo: math.Copysign(0, -1), Hi: math.SmallestNonzeroFloat64}, {Lo: math.NaN(), Hi: math.MaxFloat64}},
	}
	for name, filters := range cases {
		t.Run(name, func(t *testing.T) {
			p := payload(t, appendRequest(nil, 77, brushReq(filters)))
			if id := le.Uint64(p); id != 77 || p[8] != opBrush {
				t.Fatalf("id %d op %d", id, p[8])
			}
			ranges := make([]datacube.Range, len(filters))
			got := make([]*datacube.Range, len(filters))
			if err := decodeRanges(p[9:], ranges, got); err != nil {
				t.Fatal(err)
			}
			for i, want := range filters {
				switch {
				case want == nil && got[i] == nil:
				case want == nil || got[i] == nil:
					t.Fatalf("dimension %d: presence flipped", i)
				case math.Float64bits(want.Lo) != math.Float64bits(got[i].Lo) ||
					math.Float64bits(want.Hi) != math.Float64bits(got[i].Hi):
					t.Fatalf("dimension %d: %v became %v", i, *want, *got[i])
				}
			}
		})
	}
}

func TestFrameRequestRejects(t *testing.T) {
	good := appendRanges(nil, []*datacube.Range{nil, {Lo: 1, Hi: 2}, nil})
	cases := map[string][]byte{
		"empty":           nil,
		"short count":     good[:3],
		"fewer ranges":    appendRanges(nil, []*datacube.Range{nil, nil}),
		"more ranges":     appendRanges(nil, []*datacube.Range{nil, nil, nil, nil}),
		"truncated entry": good[:len(good)-1],
		"trailing bytes":  append(append([]byte{}, good...), 0),
		"count lies":      append(le.AppendUint32(nil, math.MaxUint32), good[4:]...),
	}
	for name, p := range cases {
		t.Run(name, func(t *testing.T) {
			if err := decodeRanges(p, make([]datacube.Range, 3), make([]*datacube.Range, 3)); err == nil {
				t.Fatal("accepted")
			}
		})
	}

	// The op byte in front of the body: a child refuses, under the call's own
	// id, a request with no op, an op it does not know, and a body that
	// belongs to the other op.
	c := frameChild(t)
	for name, req := range map[string][]byte{
		"no op":                    nil,
		"unknown op":               append([]byte{2}, good...),
		"ranges under histogram":   append([]byte{opHistogram}, good...),
		"statement under brush":    append([]byte{opBrush}, "SELECT 1"...),
		"empty histogram body":     {opHistogram},
		"histogram, no merge law":  histReq("SELECT x FROM dataroad"),
		"histogram, unknown table": histReq("SELECT ROUND(x), COUNT(*) FROM nope GROUP BY ROUND(x)"),
	} {
		t.Run(name, func(t *testing.T) {
			var out bytes.Buffer
			c.serveFrames(bytes.NewReader(appendRequest(nil, 5, req)), &out)
			r, err := decodeReply(payload(t, out.Bytes()), c.dims)
			var ce *childError
			if err != nil || r.id != 5 || !errors.As(r.err, &ce) || ce.code < 400 {
				t.Fatalf("answered %+v (%v), want an error frame under id 5", r, err)
			}
		})
	}
}

func TestFrameReplyRoundTrip(t *testing.T) {
	frame := appendOK(nil, 1<<40, 3, 9, 123456, -5, frameHists())
	le.PutUint64(frame[serviceNSOffset:], 4242)
	r, err := decodeReply(payload(t, frame), frameDims)
	if err != nil {
		t.Fatal(err)
	}
	want := reply{id: 1 << 40, shard: 3, generation: 9, childNS: 4242,
		ans: &shard.Answer{Records: 123456, Total: -5, Histograms: frameHists()}}
	if !reflect.DeepEqual(r, want) {
		t.Fatalf("got %+v (%+v), want %+v (%+v)", r, r.ans, want, want.ans)
	}

	r, err = decodeReply(payload(t, appendError(nil, 8, 503, "building")), frameDims)
	if err != nil {
		t.Fatal(err)
	}
	var ce *childError
	if r.id != 8 || r.ans != nil || !errors.As(r.err, &ce) || ce.code != 503 || ce.msg != "building" {
		t.Fatalf("error frame decoded as %+v", r)
	}
	long := payload(t, appendError(nil, 8, 500, strings.Repeat("x", 10*maxErrMessage)))
	if r, err = decodeReply(long, frameDims); err != nil || !errors.As(r.err, &ce) || len(ce.msg) != maxErrMessage {
		t.Fatalf("long message: %+v, %v", r, err)
	}
}

// frameRows is a histogram op's answer as a replica returns it.
func frameRows() *shard.Answer {
	return &shard.Answer{Records: 77, Scanned: 70, Cost: 1500 * time.Microsecond, Bins: [][]storage.Value{
		{storage.NewFloat(-3), storage.NewInt(4)},
		{storage.NewFloat(0), storage.NewInt(math.MaxInt64)},
		{storage.NewFloat(19), storage.NewInt(1)},
	}}
}

func TestFrameRowsRoundTrip(t *testing.T) {
	frame := appendRows(nil, 6, 3, 9, frameRows())
	le.PutUint64(frame[serviceNSOffset:], 4242)
	r, err := decodeReply(payload(t, frame), frameDims)
	if err != nil {
		t.Fatal(err)
	}
	want := reply{id: 6, status: statusRows, shard: 3, generation: 9, childNS: 4242, ans: frameRows()}
	if !reflect.DeepEqual(r, want) {
		t.Fatalf("got %+v (%+v), want %+v (%+v)", r, r.ans, want, want.ans)
	}
	// An empty result is zero rows, not an error.
	r, err = decodeReply(payload(t, appendRows(nil, 6, 3, 9, &shard.Answer{Records: 77, Scanned: 77})), frameDims)
	if err != nil || r.ans.Records != 77 || r.ans.Scanned != 77 || len(r.ans.Bins) != 0 {
		t.Fatalf("empty rows: %+v (%+v), %v", r, r.ans, err)
	}
}

func TestFrameReplyRejects(t *testing.T) {
	rows := payload(t, appendRows(nil, 1, 0, 1, frameRows()))
	const rowsFixed = 9 + replyHead + 8 + 8 // offset of nrows in a rows payload
	setRows := func(n uint32) []byte {
		p := append([]byte{}, rows...)
		le.PutUint32(p[rowsFixed:], n)
		return p
	}
	nanBin := append([]byte{}, rows...)
	le.PutUint64(nanBin[rowsFixed+4:], math.Float64bits(math.NaN()))
	halfBin := append([]byte{}, rows...)
	le.PutUint64(halfBin[rowsFixed+4:], math.Float64bits(2.5))
	hugeScanned := append([]byte{}, rows...)
	le.PutUint64(hugeScanned[9+replyHead:], math.MaxUint64)
	for name, p := range map[string][]byte{
		"rows: truncated fixed":  rows[:rowsFixed+2],
		"rows: truncated row":    rows[:len(rows)-1],
		"rows: trailing bytes":   append(append([]byte{}, rows...), 0),
		"rows: count too small":  setRows(2),
		"rows: count too large":  setRows(4),
		"rows: count over cap":   setRows(math.MaxUint32),
		"rows: NaN bin":          nanBin,
		"rows: fractional bin":   halfBin,
		"rows: scanned overflow": hugeScanned,
	} {
		t.Run(name, func(t *testing.T) {
			if r, err := decodeReply(p, frameDims); err == nil {
				t.Fatalf("accepted as %+v (%+v)", r, r.ans)
			}
		})
	}

	good := payload(t, appendOK(nil, 1, 0, 1, 10, 4, frameHists()))
	fewerDims := payload(t, appendOK(nil, 1, 0, 1, 10, 4, frameHists()[:2]))
	swapped := frameHists()
	swapped[0], swapped[2] = swapped[2], swapped[0] // same bytes, wrong shape per dimension
	badStatus := append([]byte{}, good...)
	badStatus[8] = 7
	hugeRecords := append([]byte{}, good...)
	le.PutUint64(hugeRecords[9+8:], math.MaxUint64)
	cases := map[string][]byte{
		"empty":            nil,
		"id only":          good[:8],
		"truncated fixed":  good[:20],
		"truncated bins":   good[:len(good)-1],
		"trailing bytes":   append(append([]byte{}, good...), 0),
		"fewer dimensions": fewerDims,
		"swapped bins":     payload(t, appendOK(nil, 1, 0, 1, 10, 4, swapped)),
		"unknown status":   badStatus,
		"records overflow": hugeRecords,
		"error sans code":  append(le.AppendUint64(nil, 1), statusError, 0),
	}
	for name, p := range cases {
		t.Run(name, func(t *testing.T) {
			if r, err := decodeReply(p, frameDims); err == nil {
				t.Fatalf("accepted as %+v", r)
			}
		})
	}
}

// headerOnly serves a frame header and fails the test if the reader comes
// back for a payload the header should have got refused.
type headerOnly struct {
	t   *testing.T
	hdr []byte
}

func (h *headerOnly) Read(p []byte) (int, error) {
	if len(h.hdr) == 0 {
		h.t.Fatalf("reader asked for %d payload bytes of an over-cap frame", len(p))
	}
	n := copy(p, h.hdr)
	h.hdr = h.hdr[n:]
	return n, nil
}

func TestFrameLengthCap(t *testing.T) {
	for _, n := range []uint32{maxFrame + 1, math.MaxUint32} {
		buf, err := readFrame(&headerOnly{t: t, hdr: le.AppendUint32(nil, n)}, nil)
		if !errors.Is(err, errFrameTooLarge) {
			t.Fatalf("length %d: err = %v", n, err)
		}
		if cap(buf) != 0 {
			t.Fatalf("length %d: buffer grew to %d before the refusal", n, cap(buf))
		}
	}
	if _, err := readFrame(bytes.NewReader(le.AppendUint32(nil, 5)), nil); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("frame cut before its payload: err = %v", err)
	}
}

// frameChild is an in-process shard child over a small road table, enough
// for serveFrames to answer real frames.
func frameChild(t testing.TB) *child {
	t.Helper()
	dims := serve.RoadCubeDims()
	rep, err := shard.NewReplica(2, dataset.Roads(1, 500), dims, nil, shard.Options{WithEngine: true})
	if err != nil {
		t.Fatal(err)
	}
	c := &child{spec: ChildSpec{Shard: 2, Of: 3, Generation: 5}, dims: dims, rep: rep}
	c.ready.Store(true)
	return c
}

// brushReq and histReq build a request's id-independent tail.
func brushReq(filters []*datacube.Range) []byte { return appendRanges([]byte{opBrush}, filters) }
func histReq(query string) []byte               { return append([]byte{opHistogram}, query...) }

// TestChildFrameLoop drives serveFrames over a byte stream: good brush
// frames get their answers in order, a malformed one gets a 400 under its
// own id and the stream carries on, and an over-cap length ends it; a
// histogram op is answered with the engine's rows, off the connection
// goroutine, so a brush behind it is answered first; the blackhole holds
// both ops.
func TestChildFrameLoop(t *testing.T) {
	c := frameChild(t)
	filters := []*datacube.Range{{Lo: 9, Hi: 10.5}, nil, nil}
	var in bytes.Buffer
	in.Write(appendRequest(nil, 1, brushReq(filters)))
	in.Write(appendRequest(nil, 2, brushReq(filters[:2])))
	in.Write(appendRequest(nil, 3, brushReq(make([]*datacube.Range, len(c.dims)))))
	in.Write(le.AppendUint32(nil, maxFrame+1))
	in.Write(appendRequest(nil, 4, brushReq(filters))) // never reached
	var out bytes.Buffer
	c.serveFrames(&in, &out)

	var got []reply
	for out.Len() > 0 {
		p, err := readFrame(&out, nil)
		if err != nil {
			t.Fatal(err)
		}
		r, err := decodeReply(p, c.dims)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, r)
	}
	if len(got) != 3 {
		t.Fatalf("%d replies, want 3", len(got))
	}
	wantTotal, err := c.rep.Prefix.Count(filters)
	if err != nil {
		t.Fatal(err)
	}
	if r := got[0]; r.id != 1 || r.err != nil || r.shard != 2 || r.generation != 5 ||
		r.ans.Records != 500 || r.ans.Total != wantTotal || r.childNS <= 0 {
		t.Fatalf("reply 1: %+v (%+v)", r, r.ans)
	}
	var ce *childError
	if r := got[1]; r.id != 2 || !errors.As(r.err, &ce) || ce.code != 400 {
		t.Fatalf("reply 2: %+v", r)
	}
	if r := got[2]; r.id != 3 || r.err != nil || r.ans.Total != 500 {
		t.Fatalf("reply 3: %+v (%+v)", r, r.ans)
	}

	// The other op, an unknown op, and a frame that is an id and nothing
	// else: each answered under its own id, and the stream carries on.
	const hist = "SELECT ROUND((x - 8.146) / 0.2), COUNT(*) FROM dataroad WHERE y >= 56.9 GROUP BY ROUND((x - 8.146) / 0.2)"
	in.Reset()
	out.Reset()
	in.Write(appendRequest(nil, 11, histReq(hist)))
	in.Write(appendRequest(nil, 12, histReq("SELECT x FROM dataroad LIMIT 1")))
	in.Write(appendRequest(nil, 13, histReq("SELEC nonsense")))
	in.Write(appendRequest(nil, 14, []byte{9, 1, 2, 3}))
	in.Write(appendRequest(nil, 15, nil))
	c.serveFrames(&in, &out)
	byID := map[uint64]reply{} // histogram ops answer in any order
	for out.Len() > 0 {
		p, err := readFrame(&out, nil)
		if err != nil {
			t.Fatal(err)
		}
		r, err := decodeReply(p, c.dims)
		if err != nil {
			t.Fatal(err)
		}
		byID[r.id] = r
	}
	want, err := c.rep.Engine.Query(hist)
	if err != nil {
		t.Fatal(err)
	}
	if r := byID[11]; r.err != nil || r.status != statusRows || r.shard != 2 || r.generation != 5 || r.childNS <= 0 ||
		r.ans.Records != 500 || r.ans.Scanned != 500 || r.ans.Cost != want.Stats.ModelCost ||
		len(want.Rows) == 0 || !reflect.DeepEqual(r.ans.Bins, want.Rows) {
		t.Fatalf("histogram reply: %+v (%+v), want rows %v", r, r.ans, want.Rows)
	}
	for id, code := range map[uint64]int{12: 501, 13: 400, 14: 400, 15: 400} {
		if r, ok := byID[id]; !ok || !errors.As(r.err, &ce) || ce.code != code {
			t.Fatalf("reply %d: %+v, want an error frame with code %d", id, r, code)
		}
	}

	// A brush behind a scan on the same connection does not wait for it: the
	// scan is held at its gate until the brush's reply has been written.
	brushed := make(chan struct{})
	c.beforeScan = func() { <-brushed }
	pr, pw := io.Pipe()
	replies := make(chan reply)
	go func() {
		defer close(replies)
		for {
			p, err := readFrame(pr, nil)
			if err != nil {
				return
			}
			r, err := decodeReply(p, c.dims)
			if err != nil {
				t.Error(err)
				return
			}
			replies <- r
		}
	}()
	in.Reset()
	in.Write(appendRequest(nil, 21, histReq(hist)))
	in.Write(appendRequest(nil, 22, brushReq(filters)))
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.serveFrames(&in, pw)
		pw.Close()
	}()
	if r := <-replies; r.id != 22 || r.err != nil || r.ans.Total != wantTotal {
		t.Fatalf("first reply behind a gated scan: %+v, want the brush (id 22)", r)
	}
	close(brushed)
	if r := <-replies; r.id != 21 || r.err != nil || !reflect.DeepEqual(r.ans.Bins, want.Rows) {
		t.Fatalf("second reply: %+v, want the scan (id 21)", r)
	}
	<-done
	c.beforeScan = nil

	// The blackhole parks both ops: nothing is answered while it holds.
	const hold = 60 * time.Millisecond
	c.blackholeUntil.Store(time.Now().Add(hold).UnixNano())
	for _, req := range [][]byte{brushReq(filters), histReq(hist)} {
		out.Reset()
		start := time.Now()
		c.serveFrames(bytes.NewReader(appendRequest(nil, 31, req)), &out)
		if el := time.Since(start); el < hold/2 || out.Len() == 0 {
			t.Fatalf("op %d under the blackhole: answered %d bytes after %v, want it held ~%v", req[0], out.Len(), el, hold)
		}
		c.blackholeUntil.Store(time.Now().Add(hold).UnixNano())
	}
	c.blackholeUntil.Store(0)

	c.ready.Store(false)
	for _, req := range [][]byte{brushReq(filters), histReq(hist)} {
		out.Reset()
		c.serveFrames(bytes.NewReader(appendRequest(nil, 9, req)), &out)
		p, err := readFrame(&out, nil)
		if err != nil {
			t.Fatal(err)
		}
		if r, err := decodeReply(p, c.dims); err != nil || r.id != 9 || !errors.As(r.err, &ce) || ce.code != 503 {
			t.Fatalf("op %d to a building child: %+v, %v", req[0], r, err)
		}
	}
}

// FuzzPartialFrame feeds arbitrary bytes to both ends of the data plane:
// the parent's decoder (as one payload, and as a stream of frames) and the
// child's frame loop. Neither may panic, an over-cap length must be refused
// without growing a buffer, and whatever the child writes back must itself
// be well-formed.
func FuzzPartialFrame(f *testing.F) {
	c := frameChild(f)
	filters := []*datacube.Range{{Lo: 9, Hi: 10.5}, nil, nil}
	request := appendRequest(nil, 1, brushReq(filters))
	hists := make([][]int64, len(c.dims))
	for i, d := range c.dims {
		hists[i] = make([]int64, d.Bins)
	}
	ok := appendOK(nil, 1, 0, 1, 500, 42, hists)
	f.Add(request)
	f.Add(ok)
	f.Add(appendError(nil, 1, 500, "boom"))
	f.Add(request[:len(request)-5])                                     // truncated
	f.Add(ok[:serviceNSOffset])                                         // truncated mid-header
	f.Add(le.AppendUint32(nil, maxFrame+1))                             // oversized length
	f.Add(appendRequest(nil, 2, brushReq(filters[:1])))                 // wrong ndims
	f.Add(appendOK(nil, 1, 0, 1, 500, 42, hists[:1]))                   // wrong ndims
	f.Add(append(append([]byte{}, request...), request[:7]...))         // good frame, then a torn one
	f.Add([]byte{3, 0, 0, 0, 1, 2, 3})                                  // payload too short for an id
	f.Add(bytes.Repeat([]byte{0xff}, 64))                               // garbage
	f.Add(append(le.AppendUint32(nil, 12), make([]byte, 12)...))        // id and a zero count
	f.Add(append(le.AppendUint32(nil, 9), 1, 0, 0, 0, 0, 0, 0, 0, 0xf)) // unknown status
	const hist = "SELECT ROUND((x - 8.146) / 0.2), COUNT(*) FROM dataroad WHERE y >= 56.9 GROUP BY ROUND((x - 8.146) / 0.2)"
	histRequest := appendRequest(nil, 3, histReq(hist))
	rows := appendRows(nil, 3, 0, 1, frameRows())
	f.Add(histRequest)
	f.Add(rows)
	f.Add(histRequest[:len(histRequest)-9])                         // a statement cut short
	f.Add(rows[:len(rows)-3])                                       // a row cut short
	f.Add(appendRequest(nil, 4, histReq("SELECT x FROM dataroad"))) // no merge law
	f.Add(appendRequest(nil, 5, []byte{7, 1, 2}))                   // unknown op
	f.Add(append(append([]byte{}, histRequest...), request...))     // a brush behind a scan

	f.Fuzz(func(t *testing.T, data []byte) {
		if r, err := decodeReply(data, c.dims); err == nil && r.status == statusRows {
			for i, row := range r.ans.Bins {
				if len(row) != 2 || row[0].F != math.Trunc(row[0].F) || math.IsInf(row[0].F, 0) {
					t.Fatalf("accepted row %d = %v", i, row)
				}
			}
		} else if err == nil && r.err == nil {
			if len(r.ans.Histograms) != len(c.dims) {
				t.Fatalf("accepted %d histograms for %d dimensions", len(r.ans.Histograms), len(c.dims))
			}
			for i, d := range c.dims {
				if len(r.ans.Histograms[i]) != d.Bins {
					t.Fatalf("accepted %d bins for dimension %d of %d", len(r.ans.Histograms[i]), i, d.Bins)
				}
			}
		}
		stream := bytes.NewReader(data)
		var buf []byte
		for {
			var err error
			if buf, err = readFrame(stream, buf); err != nil {
				if errors.Is(err, errFrameTooLarge) && cap(buf) > maxFrame {
					t.Fatalf("buffer grew to %d for a refused frame", cap(buf))
				}
				break
			}
			_, _ = decodeReply(buf, c.dims)
		}

		var out bytes.Buffer
		c.serveFrames(bytes.NewReader(data), &out)
		for out.Len() > 0 {
			p, err := readFrame(&out, nil)
			if err != nil {
				t.Fatalf("child wrote a frame the parent cannot read: %v", err)
			}
			if _, err := decodeReply(p, c.dims); err != nil {
				t.Fatalf("child wrote a reply the parent cannot decode: %v", err)
			}
		}
	})
}
