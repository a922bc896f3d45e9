package router

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/datacube"
	"repro/internal/shard"
	"repro/internal/storage"
)

// The data plane: a partition's two answers (shard.Replica's) travel
// between the router and a shard child as length-prefixed little-endian
// frames over one persistent connection per replica, multiplexed by call id.
//
//	frame    := u32 len | payload                      len = len(payload) ≤ maxFrame
//	request  := u64 id | u8 op | body
//	  brush     (op 0) := u32 ndims | ndims × (u8 present | f64 lo | f64 hi)
//	  histogram (op 1) := the SQL statement text       the rest of the payload
//	response := u64 id | u8 status | body
//	  ok     (status 0) := head | i64 total | u32 ndims | ndims × (u32 bins | bins × i64)
//	  error  (status 1) := u16 code | message          the rest of the payload
//	  rows   (status 2) := head | u64 scanned | i64 cost_ns | u32 nrows | nrows × (f64 bin | i64 count)
//	  head   := u32 shard | u32 generation | u64 records | u64 child_service_ns
//
// A brush request names one range per served dimension (present 0 =
// unfiltered) and is answered ok; a histogram request is answered rows.
// Both are the shard's raw, UNSCALED contribution — partition record count
// and either the filtered total with one histogram per dimension or the
// engine's ascending (bin, count) rows with its scan counters — which the
// router hands to shard.NewGather to merge by addition, so scaling for
// partial coverage happens once, at the serving layer, exactly as
// in-process. An error response carries an HTTP-style code (503 building,
// 400 malformed, 501 a statement with no merge law, 500 cube or engine
// error) and a short message.
const (
	// maxFrame caps a frame's declared length in both directions, checked
	// before any buffer grows to hold it: a corrupt or hostile length costs
	// nothing. 1 MiB is ~130k histogram bins, far past any served cube.
	maxFrame = 1 << 20

	frameHeader   = 4
	rangeEntry    = 1 + 8 + 8
	rowEntry      = 8 + 8
	opBrush       = 0
	opHistogram   = 1
	statusOK      = 0
	statusError   = 1
	statusRows    = 2
	maxErrMessage = 256

	// replyHead is the head both answer kinds share; serviceNSOffset locates
	// child_service_ns in an encoded answer frame (header included), so the
	// child can stamp it last, after the answer is computed and encoded.
	replyHead       = 4 + 4 + 8 + 8
	serviceNSOffset = frameHeader + 8 + 1 + 4 + 4 + 8
)

var le = binary.LittleEndian

// errFrameTooLarge refuses a declared length over maxFrame.
var errFrameTooLarge = errors.New("router: frame length over cap")

// readFrame reads one frame's payload into buf (grown only after the
// declared length passed the cap) and returns the payload slice.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return buf, err
	}
	n := le.Uint32(hdr[:])
	if n > maxFrame {
		return buf, errFrameTooLarge
	}
	if int(n) > cap(buf) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return buf, err
	}
	return buf, nil
}

// finishFrame patches the length prefix of a frame built in b, whose first
// frameHeader bytes were reserved for it.
func finishFrame(b []byte) []byte {
	le.PutUint32(b, uint32(len(b)-frameHeader))
	return b
}

// appendRanges encodes a brush request's body — ndims and the
// per-dimension ranges — once per scatter; every leg's frame reuses it.
func appendRanges(b []byte, filters []*datacube.Range) []byte {
	b = le.AppendUint32(b, uint32(len(filters)))
	for _, rg := range filters {
		if rg == nil {
			b = append(b, 0)
			b = le.AppendUint64(b, 0)
			b = le.AppendUint64(b, 0)
			continue
		}
		b = append(b, 1)
		b = le.AppendUint64(b, math.Float64bits(rg.Lo))
		b = le.AppendUint64(b, math.Float64bits(rg.Hi))
	}
	return b
}

// appendRequest builds one request frame from a call id and the request's
// id-independent tail: the op byte and its body.
func appendRequest(b []byte, id uint64, req []byte) []byte {
	b = le.AppendUint32(b, uint32(8+len(req)))
	b = le.AppendUint64(b, id)
	return append(b, req...)
}

// decodeRanges decodes a brush request's body (after the op byte) into
// filters, backed by ranges; both are sized to the served dimension count,
// and a request naming any other count is refused.
func decodeRanges(p []byte, ranges []datacube.Range, filters []*datacube.Range) error {
	if len(p) < 4 {
		return errors.New("truncated request")
	}
	n := le.Uint32(p)
	p = p[4:]
	if uint64(n) != uint64(len(filters)) {
		return fmt.Errorf("want %d ranges, got %d", len(filters), n)
	}
	if len(p) != len(filters)*rangeEntry {
		return fmt.Errorf("want %d range bytes, got %d", len(filters)*rangeEntry, len(p))
	}
	for i := range filters {
		e := p[i*rangeEntry:]
		if e[0] == 0 {
			filters[i] = nil
			continue
		}
		ranges[i] = datacube.Range{
			Lo: math.Float64frombits(le.Uint64(e[1:])),
			Hi: math.Float64frombits(le.Uint64(e[9:])),
		}
		filters[i] = &ranges[i]
	}
	return nil
}

// appendHead opens an answer frame of the given status with
// child_service_ns left zero for the caller to stamp at serviceNSOffset.
func appendHead(b []byte, id uint64, status byte, shardIdx, generation, records int) []byte {
	b = append(b, 0, 0, 0, 0)
	b = le.AppendUint64(b, id)
	b = append(b, status)
	b = le.AppendUint32(b, uint32(shardIdx))
	b = le.AppendUint32(b, uint32(generation))
	b = le.AppendUint64(b, uint64(records))
	return le.AppendUint64(b, 0)
}

// appendOK builds a brush op's answer frame.
func appendOK(b []byte, id uint64, shardIdx, generation, records int, total int64, hists [][]int64) []byte {
	b = appendHead(b, id, statusOK, shardIdx, generation, records)
	b = le.AppendUint64(b, uint64(total))
	b = le.AppendUint32(b, uint32(len(hists)))
	for _, h := range hists {
		b = le.AppendUint32(b, uint32(len(h)))
		for _, v := range h {
			b = le.AppendUint64(b, uint64(v))
		}
	}
	return finishFrame(b)
}

// appendRows builds a histogram op's answer frame from the replica's
// Answer: its scan counters and (bin, count) rows.
func appendRows(b []byte, id uint64, shardIdx, generation int, a *shard.Answer) []byte {
	b = appendHead(b, id, statusRows, shardIdx, generation, a.Records)
	b = le.AppendUint64(b, uint64(a.Scanned))
	b = le.AppendUint64(b, uint64(a.Cost))
	b = le.AppendUint32(b, uint32(len(a.Bins)))
	for _, row := range a.Bins {
		b = le.AppendUint64(b, math.Float64bits(row[0].F))
		b = le.AppendUint64(b, uint64(row[1].I))
	}
	return finishFrame(b)
}

// appendError builds an error response frame.
func appendError(b []byte, id uint64, code int, msg string) []byte {
	if len(msg) > maxErrMessage {
		msg = msg[:maxErrMessage]
	}
	b = append(b, 0, 0, 0, 0)
	b = le.AppendUint64(b, id)
	b = append(b, statusError)
	b = le.AppendUint16(b, uint16(code))
	b = append(b, msg...)
	return finishFrame(b)
}

// reply is one decoded response. err is the child's own refusal (an error
// frame); a frame that does not decode at all is decodeReply's error and
// condemns the connection, because the stream can no longer be trusted.
type reply struct {
	id         uint64
	status     byte
	shard      int
	generation int
	childNS    int64
	ans        *shard.Answer
	err        error
}

// childError is an error frame's content.
type childError struct {
	code int
	msg  string
}

func (e *childError) Error() string { return fmt.Sprintf("status %d: %s", e.code, e.msg) }

// decodeReply decodes a response payload. An ok body must carry exactly
// dims' geometry — the merge adds histograms bin by bin, so a shard
// answering in any other shape must never reach it — and a rows body
// exactly the rows it declares, each bin a whole number.
func decodeReply(p []byte, dims []datacube.Dim) (reply, error) {
	var r reply
	if len(p) < 9 {
		return r, errors.New("router: truncated response frame")
	}
	r.id, r.status = le.Uint64(p), p[8]
	p = p[9:]
	switch r.status {
	case statusError:
		if len(p) < 2 {
			return r, errors.New("router: truncated error frame")
		}
		msg := p[2:]
		if len(msg) > maxErrMessage {
			msg = msg[:maxErrMessage]
		}
		r.err = &childError{code: int(le.Uint16(p)), msg: string(msg)}
		return r, nil
	case statusOK, statusRows:
	default:
		return r, fmt.Errorf("router: response status %d", r.status)
	}
	if len(p) < replyHead {
		return r, errors.New("router: truncated answer frame")
	}
	r.shard = int(le.Uint32(p))
	r.generation = int(le.Uint32(p[4:]))
	records := le.Uint64(p[8:])
	r.childNS = int64(le.Uint64(p[16:]))
	if int(records) < 0 || uint64(int(records)) != records {
		return r, fmt.Errorf("router: response claims %d records", records)
	}
	r.ans = &shard.Answer{Records: int(records)}
	if r.status == statusRows {
		return r, decodeRows(p[replyHead:], r.ans)
	}
	return r, decodeHistograms(p[replyHead:], dims, r.ans)
}

// decodeHistograms decodes an ok body's tail: total and the histograms.
func decodeHistograms(p []byte, dims []datacube.Dim, ans *shard.Answer) error {
	if len(p) < 8+4 {
		return errors.New("router: truncated ok frame")
	}
	ans.Total = int64(le.Uint64(p))
	ndims := le.Uint32(p[8:])
	p = p[8+4:]
	if uint64(ndims) != uint64(len(dims)) {
		return fmt.Errorf("router: response has %d dimensions, want %d", ndims, len(dims))
	}
	bins, want := 0, 0
	for _, d := range dims {
		bins += d.Bins
		want += 4 + 8*d.Bins
	}
	if len(p) != want {
		return fmt.Errorf("router: response histograms are %d bytes, want %d", len(p), want)
	}
	ans.Histograms = make([][]int64, len(dims))
	backing := make([]int64, bins)
	for i, d := range dims {
		if n := le.Uint32(p); uint64(n) != uint64(d.Bins) {
			return fmt.Errorf("router: response dimension %d has %d bins, want %d", i, n, d.Bins)
		}
		p = p[4:]
		h := backing[:d.Bins:d.Bins]
		backing = backing[d.Bins:]
		for j := range h {
			h[j] = int64(le.Uint64(p[8*j:]))
		}
		p = p[8*d.Bins:]
		ans.Histograms[i] = h
	}
	return nil
}

// decodeRows decodes a rows body's tail: scan counters and (bin, count)
// rows. The row count is checked against the bytes present before anything
// is allocated for it, so it can never exceed maxFrame/rowEntry.
func decodeRows(p []byte, ans *shard.Answer) error {
	if len(p) < 8+8+4 {
		return errors.New("router: truncated rows frame")
	}
	scanned := le.Uint64(p)
	if int(scanned) < 0 || uint64(int(scanned)) != scanned {
		return fmt.Errorf("router: response claims %d tuples scanned", scanned)
	}
	ans.Scanned = int(scanned)
	ans.Cost = time.Duration(le.Uint64(p[8:]))
	nrows := le.Uint32(p[16:])
	p = p[8+8+4:]
	if uint64(len(p)) != uint64(nrows)*rowEntry {
		return fmt.Errorf("router: response declares %d rows in %d bytes", nrows, len(p))
	}
	ans.Bins = make([][]storage.Value, nrows)
	for i := range ans.Bins {
		bin := math.Float64frombits(le.Uint64(p))
		if bin != math.Trunc(bin) || math.IsInf(bin, 0) { // NaN != NaN
			return fmt.Errorf("router: response row %d has bin %v", i, bin)
		}
		ans.Bins[i] = []storage.Value{storage.NewFloat(bin), storage.NewInt(int64(le.Uint64(p[8:])))}
		p = p[rowEntry:]
	}
	return nil
}
