package colstore

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc64"
	"io"
	"math"
	"os"
	"path/filepath"
	"unsafe"

	"repro/internal/storage"
)

// Snapshot file layout — a versioned, checksummed, mmap-friendly dump of a
// frozen table plus caller-supplied sections (e.g. a shard's prefix-cube
// matrices). The design goal is warm restart in O(columns), not O(rows):
// a reader maps the file once and reconstructs every column by pointing the
// existing encodings at the mapped words — no decode pass, no re-encode, no
// row loop. Only string payloads (dictionaries, plain TEXT columns) are
// materialized, because Go strings cannot alias a file.
//
//	offset  0: magic "IDESNAP1" (8 bytes)
//	offset  8: format version  (uint32 LE)
//	offset 12: meta length     (uint32 LE)
//	offset 16: data length     (uint64 LE)
//	offset 24: checksum        (uint64 LE, CRC64-ECMA over file[32:])
//	offset 32: meta JSON (snapMeta), then zero padding to 8-byte alignment
//	then    : data region — per-column payloads and extra sections, each
//	          8-byte aligned, in the order meta declares them
//
// All multi-byte payloads are little-endian. On little-endian hosts (every
// deployment target) numeric regions are reinterpreted in place via
// unsafe.Slice; big-endian hosts fall back to a copy decode, so the format
// is portable even though the fast path is a cast.
//
// Integrity is all-or-nothing: the checksum covers the meta block and the
// entire data region, the header lengths must reconcile exactly with the
// file size, and any mismatch fails Open — a torn, truncated, or corrupted
// snapshot is rejected up front rather than serving wrong records. Callers
// layer semantic fencing on top via the Fence map (dataset, seed, rows,
// partition mode, …), which rides the checksummed meta block.

// SnapshotMagic identifies a colstore snapshot file.
const SnapshotMagic = "IDESNAP1"

// SnapshotVersion is the current format version; Open rejects others.
const SnapshotVersion = 1

// snapHeaderSize is the fixed header length in bytes.
const snapHeaderSize = 32

var crcTable = crc64.MakeTable(crc64.ECMA)

// hostLittleEndian reports whether numeric regions can alias the file bytes.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// snapRegion locates one payload inside the data region. Offsets are always
// multiples of 8 so reinterpreted slices stay aligned.
type snapRegion struct {
	Off uint64 `json:"off"`
	Len uint64 `json:"len"`
}

// snapColumn describes one column's encoding and payload locations.
type snapColumn struct {
	Name     string `json:"name"`
	Type     string `json:"type"`     // "int64" | "float64" | "string"
	Encoding string `json:"encoding"` // "plain" | "dict" | "for"
	Rows     int    `json:"rows"`

	Width      uint   `json:"width,omitempty"` // packed code width
	Card       int    `json:"card,omitempty"`  // dictionary entries
	Ref        int64  `json:"ref,omitempty"`   // ForPacked frame of reference
	Span       uint64 `json:"span,omitempty"`  // ForPacked max code
	PlainBytes int64  `json:"plain_bytes,omitempty"`
	DictBytes  int64  `json:"dict_bytes,omitempty"`

	Codes snapRegion `json:"codes,omitempty"` // packed words
	Dict  snapRegion `json:"dict,omitempty"`  // dictionary payload
	Plain snapRegion `json:"plain,omitempty"` // raw passthrough payload
}

// snapSection describes one extra section.
type snapSection struct {
	Name   string     `json:"name"`
	Kind   string     `json:"kind"` // "int64" | "json"
	Region snapRegion `json:"region"`
}

// snapMeta is the checksummed metadata block.
type snapMeta struct {
	Table    string            `json:"table"`
	Rows     int               `json:"rows"`
	PageRows int               `json:"page_rows,omitempty"`
	Fence    map[string]string `json:"fence,omitempty"`
	Columns  []snapColumn      `json:"columns"`
	Sections []snapSection     `json:"sections,omitempty"`
}

// SnapshotSection is one caller-supplied extra payload: exactly one of
// Int64s or JSON is used. Routers store a shard's prefix-cube sums as an
// int64 section and its cube dimensions as a JSON section.
type SnapshotSection struct {
	Name   string
	Int64s []int64
	JSON   []byte
}

func typeName(t storage.Type) (string, error) {
	switch t {
	case storage.Int64:
		return "int64", nil
	case storage.Float64:
		return "float64", nil
	case storage.String:
		return "string", nil
	}
	return "", fmt.Errorf("colstore: snapshot: unknown column type %v", t)
}

func typeFromName(s string) (storage.Type, error) {
	switch s {
	case "int64":
		return storage.Int64, nil
	case "float64":
		return storage.Float64, nil
	case "string":
		return storage.String, nil
	}
	return 0, fmt.Errorf("colstore: snapshot: unknown column type %q", s)
}

// snapColumnView is the writer's per-column plan: the descriptor plus the
// payloads to stream.
type snapColumnView struct {
	desc       snapColumn
	codes      []uint64 // packed words
	dictFloats []float64
	dictInts   []int64
	dictStrs   []byte // pre-encoded string payload
	plainF     []float64
	plainI     []int64
	plainS     []byte // pre-encoded string payload
}

// encodeStringPayload packs strings as uvarint length + bytes each.
func encodeStringPayload(vals []string) []byte {
	size := 0
	var tmp [binary.MaxVarintLen64]byte
	for _, s := range vals {
		size += binary.PutUvarint(tmp[:], uint64(len(s))) + len(s)
	}
	out := make([]byte, 0, size)
	for _, s := range vals {
		n := binary.PutUvarint(tmp[:], uint64(len(s)))
		out = append(out, tmp[:n]...)
		out = append(out, s...)
	}
	return out
}

// decodeStringPayload reverses encodeStringPayload into exactly n strings.
func decodeStringPayload(b []byte, n int) ([]string, error) {
	out := make([]string, 0, n)
	for len(out) < n {
		l, k := binary.Uvarint(b)
		if k <= 0 || l > uint64(len(b)-k) {
			return nil, fmt.Errorf("colstore: snapshot: truncated string payload")
		}
		out = append(out, string(b[k:k+int(l)]))
		b = b[k+int(l):]
	}
	return out, nil
}

// planColumn builds the write plan for one column. Unfrozen columns are
// written as plain passthrough (no encode decision is made at snapshot
// time); frozen columns dump their exact representation.
func planColumn(name string, col *storage.Column) (*snapColumnView, error) {
	tn, err := typeName(col.Type)
	if err != nil {
		return nil, err
	}
	v := &snapColumnView{desc: snapColumn{Name: name, Type: tn, Rows: col.Len()}}
	enc, frozen := Of(col)
	if !frozen {
		v.desc.Encoding = Plain.String()
		switch col.Type {
		case storage.Float64:
			v.plainF = col.Floats
		case storage.Int64:
			v.plainI = col.Ints
		default:
			v.plainS = encodeStringPayload(col.Strings)
		}
		return v, nil
	}
	switch c := enc.(type) {
	case *PlainFloats:
		v.desc.Encoding = Plain.String()
		v.plainF = c.vals
	case *PlainInts:
		v.desc.Encoding = Plain.String()
		v.plainI = c.vals
	case *PlainStrings:
		v.desc.Encoding = Plain.String()
		v.desc.PlainBytes = c.plainBytes
		v.plainS = encodeStringPayload(c.vals)
	case *ForColumn:
		v.desc.Encoding = ForPacked.String()
		v.desc.Width = c.codes.Width()
		v.desc.Ref = c.ref
		v.desc.Span = c.span
		v.codes = c.codes.words
	case *DictColumn:
		v.desc.Encoding = Dict.String()
		v.desc.Width = c.codes.Width()
		v.desc.Card = c.card()
		v.desc.PlainBytes = c.plainBytes
		v.desc.DictBytes = c.dictBytes
		v.codes = c.codes.words
		switch c.typ {
		case storage.Float64:
			v.dictFloats = c.fvals
		case storage.Int64:
			v.dictInts = c.ivals
		default:
			v.dictStrs = encodeStringPayload(c.svals)
		}
	default:
		return nil, fmt.Errorf("colstore: snapshot: column %q has unsupported encoding %T", name, enc)
	}
	return v, nil
}

// pad8 rounds up to the next multiple of 8.
func pad8(n uint64) uint64 { return (n + 7) &^ 7 }

// regionFor reserves a region of size bytes at the running offset.
func regionFor(off *uint64, size uint64) snapRegion {
	r := snapRegion{Off: *off, Len: size}
	*off = pad8(*off + size)
	return r
}

// snapWriter streams the data region, feeding the checksum.
type snapWriter struct {
	w   io.Writer
	crc uint64
	off uint64
	buf []byte
}

func (sw *snapWriter) write(b []byte) error {
	sw.crc = crc64.Update(sw.crc, crcTable, b)
	n, err := sw.w.Write(b)
	sw.off += uint64(n)
	return err
}

// writeWords streams a numeric slice as little-endian bytes: a direct cast
// on little-endian hosts, an encode loop elsewhere.
func writeWords[T uint64 | int64 | float64](sw *snapWriter, vals []T) error {
	if len(vals) == 0 {
		return nil
	}
	if hostLittleEndian {
		b := unsafe.Slice((*byte)(unsafe.Pointer(&vals[0])), len(vals)*8)
		return sw.write(b)
	}
	if sw.buf == nil {
		sw.buf = make([]byte, 1<<16)
	}
	b := sw.buf[:0]
	for _, v := range vals {
		var u uint64
		switch x := any(v).(type) {
		case uint64:
			u = x
		case int64:
			u = uint64(x)
		case float64:
			u = math.Float64bits(x)
		}
		b = binary.LittleEndian.AppendUint64(b, u)
		if len(b)+8 > cap(b) {
			if err := sw.write(b); err != nil {
				return err
			}
			b = sw.buf[:0]
		}
	}
	return sw.write(b)
}

var zeroPad [8]byte

// padTo writes zero bytes until the running offset reaches target.
func (sw *snapWriter) padTo(target uint64) error {
	if sw.off > target {
		return fmt.Errorf("colstore: snapshot: writer overran region plan (%d > %d)", sw.off, target)
	}
	for sw.off < target {
		n := target - sw.off
		if n > 8 {
			n = 8
		}
		if err := sw.write(zeroPad[:n]); err != nil {
			return err
		}
	}
	return nil
}

// WriteSnapshot atomically serializes a table (frozen or not — unfrozen
// columns are written as plain passthrough) plus extra sections to path:
// the file is staged under a temporary name in the same directory and
// renamed into place, so readers never observe a partial write and
// concurrent writers of identical content race harmlessly. fence is an
// arbitrary caller contract stored in the checksummed meta block; Open
// returns it for the caller to verify before trusting the contents.
func WriteSnapshot(path string, t *storage.Table, fence map[string]string, sections []SnapshotSection) (err error) {
	if t == nil {
		return fmt.Errorf("colstore: snapshot: nil table")
	}
	meta := snapMeta{Table: t.Name, Rows: t.NumRows(), PageRows: t.PageRows, Fence: fence}
	views := make([]*snapColumnView, len(t.Columns))
	var off uint64
	for i, col := range t.Columns {
		v, err := planColumn(t.Schema[i].Name, col)
		if err != nil {
			return err
		}
		if col.Len() != meta.Rows {
			return fmt.Errorf("colstore: snapshot: column %q has %d rows, table has %d",
				t.Schema[i].Name, col.Len(), meta.Rows)
		}
		if len(v.codes) > 0 {
			v.desc.Codes = regionFor(&off, uint64(len(v.codes))*8)
		}
		switch {
		case v.dictFloats != nil:
			v.desc.Dict = regionFor(&off, uint64(len(v.dictFloats))*8)
		case v.dictInts != nil:
			v.desc.Dict = regionFor(&off, uint64(len(v.dictInts))*8)
		case v.dictStrs != nil:
			v.desc.Dict = regionFor(&off, uint64(len(v.dictStrs)))
		}
		switch {
		case v.plainF != nil:
			v.desc.Plain = regionFor(&off, uint64(len(v.plainF))*8)
		case v.plainI != nil:
			v.desc.Plain = regionFor(&off, uint64(len(v.plainI))*8)
		case v.plainS != nil:
			v.desc.Plain = regionFor(&off, uint64(len(v.plainS)))
		}
		views[i] = v
		meta.Columns = append(meta.Columns, v.desc)
	}
	for _, s := range sections {
		if s.Int64s != nil && s.JSON != nil {
			return fmt.Errorf("colstore: snapshot: section %q has both int64 and JSON payloads", s.Name)
		}
		sec := snapSection{Name: s.Name, Kind: "int64"}
		if s.JSON != nil {
			sec.Kind = "json"
			sec.Region = regionFor(&off, uint64(len(s.JSON)))
		} else {
			sec.Region = regionFor(&off, uint64(len(s.Int64s))*8)
		}
		meta.Sections = append(meta.Sections, sec)
	}
	dataLen := off

	metaBytes, err := json.Marshal(&meta)
	if err != nil {
		return err
	}
	if len(metaBytes) > math.MaxUint32 {
		return fmt.Errorf("colstore: snapshot: meta block too large")
	}

	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	// Header placeholder first; the checksum is patched in once the body has
	// streamed through the CRC.
	if _, err = tmp.Write(make([]byte, snapHeaderSize)); err != nil {
		return err
	}
	sw := &snapWriter{w: tmp}
	if err = sw.write(metaBytes); err != nil {
		return err
	}
	if err = sw.padTo(pad8(uint64(len(metaBytes)))); err != nil {
		return err
	}
	dataBase := sw.off
	for _, v := range views {
		if len(v.codes) > 0 {
			if err = writeWords(sw, v.codes); err != nil {
				return err
			}
			if err = sw.padTo(dataBase + v.desc.Codes.Off + pad8(v.desc.Codes.Len)); err != nil {
				return err
			}
		}
		if v.dictFloats != nil || v.dictInts != nil || v.dictStrs != nil {
			switch {
			case v.dictFloats != nil:
				err = writeWords(sw, v.dictFloats)
			case v.dictInts != nil:
				err = writeWords(sw, v.dictInts)
			default:
				err = sw.write(v.dictStrs)
			}
			if err != nil {
				return err
			}
			if err = sw.padTo(dataBase + v.desc.Dict.Off + pad8(v.desc.Dict.Len)); err != nil {
				return err
			}
		}
		if v.plainF != nil || v.plainI != nil || v.plainS != nil {
			switch {
			case v.plainF != nil:
				err = writeWords(sw, v.plainF)
			case v.plainI != nil:
				err = writeWords(sw, v.plainI)
			default:
				err = sw.write(v.plainS)
			}
			if err != nil {
				return err
			}
			if err = sw.padTo(dataBase + v.desc.Plain.Off + pad8(v.desc.Plain.Len)); err != nil {
				return err
			}
		}
	}
	for i, s := range sections {
		if s.JSON != nil {
			err = sw.write(s.JSON)
		} else {
			err = writeWords(sw, s.Int64s)
		}
		if err != nil {
			return err
		}
		reg := meta.Sections[i].Region
		if err = sw.padTo(dataBase + reg.Off + pad8(reg.Len)); err != nil {
			return err
		}
	}
	if sw.off != dataBase+dataLen {
		return fmt.Errorf("colstore: snapshot: wrote %d data bytes, planned %d", sw.off-dataBase, dataLen)
	}

	var header [snapHeaderSize]byte
	copy(header[:8], SnapshotMagic)
	binary.LittleEndian.PutUint32(header[8:], SnapshotVersion)
	binary.LittleEndian.PutUint32(header[12:], uint32(len(metaBytes)))
	binary.LittleEndian.PutUint64(header[16:], dataLen)
	binary.LittleEndian.PutUint64(header[24:], sw.crc)
	if _, err = tmp.WriteAt(header[:], 0); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// Snapshot is an opened snapshot file: the reconstructed table plus the
// extra sections, all viewing the mapped (or loaded) file bytes. The
// Snapshot must outlive every structure served from it — Close unmaps the
// region and leaves the views dangling.
type Snapshot struct {
	table    *storage.Table
	fence    map[string]string
	sections map[string]snapSection
	data     []byte // the data region (slice of buf)
	buf      []byte // the whole file
	mapped   bool
	path     string
}

// OpenSnapshot maps path read-only, verifies magic, version, structural
// lengths, and the body checksum, and reconstructs the table zero-copy.
// Any inconsistency — truncation, corruption, foreign file, future version
// — is an error; the caller's fallback ladder decides what to do next.
func OpenSnapshot(path string) (*Snapshot, error) {
	buf, mapped, err := mapFile(path)
	if err != nil {
		return nil, err
	}
	s, err := openSnapshotBytes(buf, mapped, path)
	if err != nil {
		unmapFile(buf, mapped)
		return nil, err
	}
	return s, nil
}

func openSnapshotBytes(buf []byte, mapped bool, path string) (*Snapshot, error) {
	if len(buf) < snapHeaderSize {
		return nil, fmt.Errorf("colstore: snapshot %s: short file (%d bytes)", path, len(buf))
	}
	if string(buf[:8]) != SnapshotMagic {
		return nil, fmt.Errorf("colstore: snapshot %s: bad magic", path)
	}
	if v := binary.LittleEndian.Uint32(buf[8:]); v != SnapshotVersion {
		return nil, fmt.Errorf("colstore: snapshot %s: format version %d, want %d", path, v, SnapshotVersion)
	}
	metaLen := uint64(binary.LittleEndian.Uint32(buf[12:]))
	dataLen := binary.LittleEndian.Uint64(buf[16:])
	sum := binary.LittleEndian.Uint64(buf[24:])
	metaEnd := snapHeaderSize + metaLen
	dataBase := pad8(metaEnd)
	if metaEnd < snapHeaderSize || dataBase+dataLen != uint64(len(buf)) || metaEnd > uint64(len(buf)) {
		return nil, fmt.Errorf("colstore: snapshot %s: header lengths do not reconcile with %d-byte file", path, len(buf))
	}
	if got := crc64.Checksum(buf[snapHeaderSize:], crcTable); got != sum {
		return nil, fmt.Errorf("colstore: snapshot %s: checksum mismatch (file %x, computed %x)", path, sum, got)
	}
	var meta snapMeta
	if err := json.Unmarshal(buf[snapHeaderSize:metaEnd], &meta); err != nil {
		return nil, fmt.Errorf("colstore: snapshot %s: meta: %w", path, err)
	}
	data := buf[dataBase:]

	table := &storage.Table{Name: meta.Table, PageRows: meta.PageRows}
	if table.PageRows <= 0 {
		table.PageRows = storage.DefaultPageRows
	}
	for _, sc := range meta.Columns {
		typ, err := typeFromName(sc.Type)
		if err != nil {
			return nil, err
		}
		if sc.Rows != meta.Rows {
			return nil, fmt.Errorf("colstore: snapshot %s: column %q rows %d != table rows %d", path, sc.Name, sc.Rows, meta.Rows)
		}
		enc, err := columnFromSnap(sc, typ, data)
		if err != nil {
			return nil, fmt.Errorf("colstore: snapshot %s: %w", path, err)
		}
		table.Schema = append(table.Schema, storage.ColumnDef{Name: sc.Name, Type: typ})
		table.Columns = append(table.Columns, &storage.Column{Type: typ, Enc: enc})
	}
	s := &Snapshot{
		table:    table,
		fence:    meta.Fence,
		sections: make(map[string]snapSection, len(meta.Sections)),
		data:     data,
		buf:      buf,
		mapped:   mapped,
		path:     path,
	}
	for _, sec := range meta.Sections {
		if _, err := region(data, sec.Region); err != nil {
			return nil, fmt.Errorf("colstore: snapshot %s: section %q: %w", path, sec.Name, err)
		}
		s.sections[sec.Name] = sec
	}
	return s, nil
}

// region bounds-checks and returns one payload's bytes.
func region(data []byte, r snapRegion) ([]byte, error) {
	if r.Off%8 != 0 {
		return nil, fmt.Errorf("misaligned region at %d", r.Off)
	}
	end := r.Off + r.Len
	if end < r.Off || end > uint64(len(data)) {
		return nil, fmt.Errorf("region [%d,%d) outside %d-byte data", r.Off, end, len(data))
	}
	return data[r.Off:end], nil
}

// u64Region reinterprets a region as []uint64 — zero-copy on little-endian
// hosts, a copy decode elsewhere.
func u64Region(data []byte, r snapRegion) ([]uint64, error) {
	b, err := region(data, r)
	if err != nil {
		return nil, err
	}
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("region length %d not word-aligned", len(b))
	}
	n := len(b) / 8
	if n == 0 {
		return nil, nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), n), nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[i*8:])
	}
	return out, nil
}

func i64Region(data []byte, r snapRegion) ([]int64, error) {
	u, err := u64Region(data, r)
	if err != nil || u == nil {
		return nil, err
	}
	if hostLittleEndian {
		return unsafe.Slice((*int64)(unsafe.Pointer(&u[0])), len(u)), nil
	}
	out := make([]int64, len(u))
	for i, v := range u {
		out[i] = int64(v)
	}
	return out, nil
}

func f64Region(data []byte, r snapRegion) ([]float64, error) {
	u, err := u64Region(data, r)
	if err != nil || u == nil {
		return nil, err
	}
	if hostLittleEndian {
		return unsafe.Slice((*float64)(unsafe.Pointer(&u[0])), len(u)), nil
	}
	out := make([]float64, len(u))
	for i, v := range u {
		out[i] = math.Float64frombits(v)
	}
	return out, nil
}

// packedFromWords rebuilds a PackedInts view over snapshot words, verifying
// the word count matches the (rows, width) geometry exactly.
func packedFromWords(words []uint64, width uint, n int) (*PackedInts, error) {
	if width > 64 {
		return nil, fmt.Errorf("bit width %d out of range", width)
	}
	if want := packedBytes(n, width) / 8; int64(len(words)) != want {
		return nil, fmt.Errorf("packed words: have %d, want %d for %d rows at width %d", len(words), want, n, width)
	}
	var mask uint64
	if width > 0 {
		mask = ^uint64(0) >> (64 - width)
	}
	return &PackedInts{words: words, width: width, mask: mask, n: n}, nil
}

// columnFromSnap reconstructs one encoded column view over the data region.
func columnFromSnap(sc snapColumn, typ storage.Type, data []byte) (Column, error) {
	switch sc.Encoding {
	case Plain.String():
		switch typ {
		case storage.Float64:
			vals, err := f64Region(data, sc.Plain)
			if err != nil {
				return nil, fmt.Errorf("column %q: %w", sc.Name, err)
			}
			if len(vals) != sc.Rows {
				return nil, fmt.Errorf("column %q: %d plain values for %d rows", sc.Name, len(vals), sc.Rows)
			}
			return NewPlainFloats(vals), nil
		case storage.Int64:
			vals, err := i64Region(data, sc.Plain)
			if err != nil {
				return nil, fmt.Errorf("column %q: %w", sc.Name, err)
			}
			if len(vals) != sc.Rows {
				return nil, fmt.Errorf("column %q: %d plain values for %d rows", sc.Name, len(vals), sc.Rows)
			}
			return NewPlainInts(vals), nil
		default:
			b, err := region(data, sc.Plain)
			if err != nil {
				return nil, fmt.Errorf("column %q: %w", sc.Name, err)
			}
			vals, err := decodeStringPayload(b, sc.Rows)
			if err != nil {
				return nil, fmt.Errorf("column %q: %w", sc.Name, err)
			}
			c := NewPlainStrings(vals)
			if sc.PlainBytes > 0 {
				c.plainBytes = sc.PlainBytes
			}
			return c, nil
		}
	case ForPacked.String():
		if typ != storage.Int64 {
			return nil, fmt.Errorf("column %q: for-packed %s column", sc.Name, sc.Type)
		}
		words, err := u64Region(data, sc.Codes)
		if err != nil {
			return nil, fmt.Errorf("column %q: %w", sc.Name, err)
		}
		codes, err := packedFromWords(words, sc.Width, sc.Rows)
		if err != nil {
			return nil, fmt.Errorf("column %q: %w", sc.Name, err)
		}
		return &ForColumn{ref: sc.Ref, span: sc.Span, codes: codes}, nil
	case Dict.String():
		words, err := u64Region(data, sc.Codes)
		if err != nil {
			return nil, fmt.Errorf("column %q: %w", sc.Name, err)
		}
		codes, err := packedFromWords(words, sc.Width, sc.Rows)
		if err != nil {
			return nil, fmt.Errorf("column %q: %w", sc.Name, err)
		}
		if sc.Rows > 0 && sc.Card <= 0 {
			return nil, fmt.Errorf("column %q: dictionary with no entries for %d rows", sc.Name, sc.Rows)
		}
		c := &DictColumn{typ: typ, codes: codes, plainBytes: sc.PlainBytes, dictBytes: sc.DictBytes}
		switch typ {
		case storage.Float64:
			c.fvals, err = f64Region(data, sc.Dict)
		case storage.Int64:
			c.ivals, err = i64Region(data, sc.Dict)
		default:
			var b []byte
			b, err = region(data, sc.Dict)
			if err == nil {
				c.svals, err = decodeStringPayload(b, sc.Card)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("column %q: %w", sc.Name, err)
		}
		if got := c.card(); got != sc.Card {
			return nil, fmt.Errorf("column %q: dictionary has %d entries, meta says %d", sc.Name, got, sc.Card)
		}
		return c, nil
	}
	return nil, fmt.Errorf("column %q: unknown encoding %q", sc.Name, sc.Encoding)
}

// Table returns the reconstructed frozen table. Its columns alias the
// snapshot's mapped bytes; do not use it after Close.
func (s *Snapshot) Table() *storage.Table { return s.table }

// Fence returns the caller contract stored at write time (nil-safe).
func (s *Snapshot) Fence() map[string]string { return s.fence }

// Rows returns the table's row count.
func (s *Snapshot) Rows() int { return s.table.NumRows() }

// Bytes returns the snapshot file's total size.
func (s *Snapshot) Bytes() int64 { return int64(len(s.buf)) }

// SectionInt64 returns a named int64 section, aliasing the mapped bytes.
func (s *Snapshot) SectionInt64(name string) ([]int64, bool) {
	sec, ok := s.sections[name]
	if !ok || sec.Kind != "int64" {
		return nil, false
	}
	vals, err := i64Region(s.data, sec.Region)
	if err != nil {
		return nil, false
	}
	return vals, true
}

// SectionJSON returns a named JSON section's raw bytes.
func (s *Snapshot) SectionJSON(name string) ([]byte, bool) {
	sec, ok := s.sections[name]
	if !ok || sec.Kind != "json" {
		return nil, false
	}
	b, err := region(s.data, sec.Region)
	if err != nil {
		return nil, false
	}
	return b, true
}

// Close releases the mapping. Every table, column, and section view handed
// out by this snapshot is invalid afterwards.
func (s *Snapshot) Close() error {
	if s.buf == nil {
		return nil
	}
	buf, mapped := s.buf, s.mapped
	s.buf, s.data, s.table, s.sections = nil, nil, nil, nil
	return unmapFile(buf, mapped)
}
