package widget

import "testing"

func TestParseTileRoundTrip(t *testing.T) {
	for _, tile := range []Tile{{Z: 12, X: 1205, Y: 1539}, {Z: 1, X: 0, Y: 1}, {Z: 18, X: 262143, Y: 0}, {Z: 0}, {Z: maxTileZoom, X: 1<<maxTileZoom - 1, Y: 1<<maxTileZoom - 1}} {
		got, err := ParseTile(tile.String())
		if err != nil {
			t.Fatalf("ParseTile(%q): %v", tile.String(), err)
		}
		if got != tile {
			t.Errorf("round trip %v → %v", tile, got)
		}
	}
}

func TestParseTileErrors(t *testing.T) {
	for _, s := range []string{
		"", "12", "a/b/c", "1/2",
		// Trailing text, signs and padding: the key is not Tile.String's.
		"4/1/7/9", "4/1/7abc", "+4/1/7", "04/1/7", " 4/1/7",
		// Tiles that do not exist.
		"-1/0/0", "40/0/0", "31/0/0", "1100/0/0", "2/9/9", "2/4/0", "2/0/4", "3/-1/0", "3/0/-1",
	} {
		if _, err := ParseTile(s); err == nil {
			t.Errorf("ParseTile(%q) succeeded", s)
		}
	}
}

// FuzzParseTile: any string either fails to parse, or names an existing
// tile whose key is exactly the input.
func FuzzParseTile(f *testing.F) {
	for _, s := range []string{"0/0/0", "12/1205/1539", "4/1/7/9", "-1/0/0", "2/9/9", "30/1073741823/0", "1/2"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		tile, err := ParseTile(s)
		if err != nil {
			return
		}
		if tile.String() != s {
			t.Fatalf("ParseTile(%q) = %v, which renders as %q", s, tile, tile.String())
		}
		if tile.Z < 0 || tile.Z > maxTileZoom || tile.X < 0 || tile.X >= 1<<tile.Z || tile.Y < 0 || tile.Y >= 1<<tile.Z {
			t.Fatalf("ParseTile(%q) accepted a tile that does not exist: %v", s, tile)
		}
	})
}
