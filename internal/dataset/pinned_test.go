package dataset

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/storage"
)

// tableSHA256 hashes a table's columns in schema order, each one row by
// row: an int64 as 8 little-endian bytes, a float64 as its Float64bits the same
// way, a string as its length (8 little-endian bytes) and then its bytes.
func tableSHA256(t *storage.Table) string {
	h := sha256.New()
	var buf [8]byte
	for _, col := range t.Columns {
		for i := 0; i < col.Len(); i++ {
			switch col.Type {
			case storage.Int64:
				binary.LittleEndian.PutUint64(buf[:], uint64(col.Ints[i]))
				h.Write(buf[:])
			case storage.Float64:
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(col.Floats[i]))
				h.Write(buf[:])
			default:
				s := col.Strings[i]
				binary.LittleEndian.PutUint64(buf[:], uint64(len(s)))
				h.Write(buf[:])
				h.Write([]byte(s))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGeneratorsPinned pins every value the generators emit. Each case
// study, the served road table and the benchmark's oracle all regenerate
// their data through these functions, so a change to a draw's order or
// arithmetic would pass every comparison of two runs; these hashes catch it.
func TestGeneratorsPinned(t *testing.T) {
	movies := Movies(1, 4000)
	ratings, details := MovieRatingSplit(movies)
	for _, c := range []struct {
		name  string
		table *storage.Table
		want  string
	}{
		{"Roads(1, 434874)", Roads(1, RoadCount), "90ef850fdcbb2b721449fa73f7623ba30ae5f7ac6d7077d1d66de798db1e0387"},
		{"Roads(1, 500000)", Roads(1, 500000), "1b13df46215cce114657fa3aafcff8510344c26a8fcf8ece292fd70ee6a66964"},
		{"Listings(1, 20000)", Listings(1, DefaultListingCount), "5c62cfe9d9a8e5ee26663d912db2893f2a52090cf8084273a1b301158801c631"},
		{"Movies(1, 4000)", movies, "b5b9bd3364d6c9882a35d46607fdb0163779efaeec630cb9f6b1ff5122ab7558"},
		{"MovieRatingSplit ratings", ratings, "97a9e963114f4f8d7994c078db50be4e8d4c6f8c558be8e30f90dc5b0de68b87"},
		{"MovieRatingSplit details", details, "652b5dd7df21e8384e0b70788eff5757c01b82424a77df32476399576c263463"},
	} {
		if got := tableSHA256(c.table); got != c.want {
			t.Errorf("%s: sha256 %s, want %s", c.name, got, c.want)
		}
	}
}
