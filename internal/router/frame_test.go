package router

import (
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/datacube"
	"repro/internal/dataset"
	"repro/internal/serve"
	"repro/internal/shard"
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
			p := payload(t, appendRequest(nil, 77, appendRanges(nil, filters)))
			if id := le.Uint64(p); id != 77 {
				t.Fatalf("id %d", id)
			}
			ranges := make([]datacube.Range, len(filters))
			got := make([]*datacube.Range, len(filters))
			if err := decodeRanges(p[8:], ranges, got); err != nil {
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

func TestFrameReplyRejects(t *testing.T) {
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
	table := dataset.Roads(1, 500)
	prefix, err := datacube.BuildPrefix(table, dims, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := &child{spec: ChildSpec{Shard: 2, Of: 3, Generation: 5}, dims: dims, prefix: prefix, rows: table.NumRows()}
	c.ready.Store(true)
	return c
}

// TestChildFrameLoop drives serveFrames over a byte stream: good frames get
// their answers in order, a malformed one gets a 400 under its own id and
// the stream carries on, and an over-cap length ends it.
func TestChildFrameLoop(t *testing.T) {
	c := frameChild(t)
	filters := []*datacube.Range{{Lo: 9, Hi: 10.5}, nil, nil}
	var in bytes.Buffer
	in.Write(appendRequest(nil, 1, appendRanges(nil, filters)))
	in.Write(appendRequest(nil, 2, appendRanges(nil, filters[:2])))
	in.Write(appendRequest(nil, 3, appendRanges(nil, make([]*datacube.Range, len(c.dims)))))
	in.Write(le.AppendUint32(nil, maxFrame+1))
	in.Write(appendRequest(nil, 4, appendRanges(nil, filters))) // never reached
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
	wantTotal, err := c.prefix.Count(filters)
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

	c.ready.Store(false)
	out.Reset()
	c.serveFrames(bytes.NewReader(appendRequest(nil, 9, appendRanges(nil, filters))), &out)
	p, err := readFrame(&out, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r, err := decodeReply(p, c.dims); err != nil || r.id != 9 || !errors.As(r.err, &ce) || ce.code != 503 {
		t.Fatalf("frame to a building child: %+v, %v", r, err)
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
	request := appendRequest(nil, 1, appendRanges(nil, filters))
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
	f.Add(appendRequest(nil, 2, appendRanges(nil, filters[:1])))        // wrong ndims
	f.Add(appendOK(nil, 1, 0, 1, 500, 42, hists[:1]))                   // wrong ndims
	f.Add(append(append([]byte{}, request...), request[:7]...))         // good frame, then a torn one
	f.Add([]byte{3, 0, 0, 0, 1, 2, 3})                                  // payload too short for an id
	f.Add(bytes.Repeat([]byte{0xff}, 64))                               // garbage
	f.Add(append(le.AppendUint32(nil, 12), make([]byte, 12)...))        // id and a zero count
	f.Add(append(le.AppendUint32(nil, 9), 1, 0, 0, 0, 0, 0, 0, 0, 0xf)) // unknown status

	f.Fuzz(func(t *testing.T, data []byte) {
		if r, err := decodeReply(data, c.dims); err == nil && r.err == nil {
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
