package widget

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// MapView is a slippy-map viewport in the web-mercator tile scheme: a zoom
// level, a center, and a pixel viewport, from which visible bounds and tile
// keys follow. It is the dominant widget of the composite-interface case
// study (62.8% of queries) and the unit the tile prefetchers operate on.
type MapView struct {
	Zoom      int // tile zoom level
	CenterLat float64
	CenterLng float64
	ViewportW int // pixels
	ViewportH int // pixels

	MinZoom, MaxZoom int
}

// TileSize is the standard web-mercator tile edge in pixels.
const TileSize = 256

// NewMapView creates a map at the given zoom and center with a desktop-ish
// viewport.
func NewMapView(zoom int, lat, lng float64) *MapView {
	return &MapView{
		Zoom: zoom, CenterLat: lat, CenterLng: lng,
		ViewportW: 1024, ViewportH: 768,
		MinZoom: 1, MaxZoom: 18,
	}
}

// Tile is one web-mercator tile key.
type Tile struct{ Z, X, Y int }

// String renders the tile as z/x/y.
func (t Tile) String() string { return fmt.Sprintf("%d/%d/%d", t.Z, t.X, t.Y) }

// maxTileZoom is the deepest zoom a tile key may name; 2^30 tiles a side
// still fits an int everywhere.
const maxTileZoom = 30

// ParseTile parses a z/x/y tile key produced by Tile.String. The key must
// be exactly that rendering (no sign, padding or trailing text) of a tile
// that exists: 0 ≤ z ≤ maxTileZoom and 0 ≤ x, y < 2^z.
func ParseTile(s string) (Tile, error) {
	var t Tile
	if _, err := fmt.Sscanf(s, "%d/%d/%d", &t.Z, &t.X, &t.Y); err != nil {
		return Tile{}, fmt.Errorf("widget: bad tile key %q: %w", s, err)
	}
	if t.String() != s {
		return Tile{}, fmt.Errorf("widget: bad tile key %q: want z/x/y", s)
	}
	if t.Z < 0 || t.Z > maxTileZoom || t.X < 0 || t.X >= 1<<t.Z || t.Y < 0 || t.Y >= 1<<t.Z {
		return Tile{}, fmt.Errorf("widget: tile %q does not exist (want 0 ≤ z ≤ %d, 0 ≤ x, y < 2^z)", s, maxTileZoom)
	}
	return t, nil
}

// project converts lat/lng to world pixel coordinates at zoom z.
func project(lat, lng float64, z int) (x, y float64) {
	scale := float64(TileSize) * math.Exp2(float64(z))
	x = (lng + 180) / 360 * scale
	sin := math.Sin(lat * math.Pi / 180)
	// Clamp to the mercator-safe range.
	sin = math.Max(-0.9999, math.Min(0.9999, sin))
	y = (0.5 - math.Log((1+sin)/(1-sin))/(4*math.Pi)) * scale
	return x, y
}

// unproject converts world pixels at zoom z back to lat/lng.
func unproject(x, y float64, z int) (lat, lng float64) {
	scale := float64(TileSize) * math.Exp2(float64(z))
	lng = x/scale*360 - 180
	n := math.Pi - 2*math.Pi*y/scale
	lat = 180 / math.Pi * math.Atan(math.Sinh(n))
	return lat, lng
}

// Bounds returns the viewport's southwest and northeast corners.
func (m *MapView) Bounds() (swLat, swLng, neLat, neLng float64) {
	cx, cy := project(m.CenterLat, m.CenterLng, m.Zoom)
	halfW, halfH := float64(m.ViewportW)/2, float64(m.ViewportH)/2
	neLat, swLng = unproject(cx-halfW, cy-halfH, m.Zoom)
	swLat, neLng = unproject(cx+halfW, cy+halfH, m.Zoom)
	return swLat, swLng, neLat, neLng
}

// BoundCenter returns the center of the bounds — the quantity whose
// per-zoom drag ranges the paper's Table 10 reports.
func (m *MapView) BoundCenter() (lat, lng float64) {
	swLat, swLng, neLat, neLng := m.Bounds()
	return (swLat + neLat) / 2, (swLng + neLng) / 2
}

// ZoomIn increases the zoom level by one, keeping the center.
func (m *MapView) ZoomIn() bool {
	if m.Zoom >= m.MaxZoom {
		return false
	}
	m.Zoom++
	return true
}

// ZoomOut decreases the zoom level by one.
func (m *MapView) ZoomOut() bool {
	if m.Zoom <= m.MinZoom {
		return false
	}
	m.Zoom--
	return true
}

// Pan shifts the center by pixel deltas at the current zoom (positive dx
// pans east, positive dy pans south).
func (m *MapView) Pan(dx, dy float64) {
	cx, cy := project(m.CenterLat, m.CenterLng, m.Zoom)
	m.CenterLat, m.CenterLng = unproject(cx+dx, cy+dy, m.Zoom)
}

// PanDegrees shifts the center by lat/lng deltas directly.
func (m *MapView) PanDegrees(dLat, dLng float64) {
	m.CenterLat += dLat
	m.CenterLng += dLng
	if m.CenterLat > 85 {
		m.CenterLat = 85
	}
	if m.CenterLat < -85 {
		m.CenterLat = -85
	}
}

// VisibleTiles lists the tile keys covering the viewport, row-major.
func (m *MapView) VisibleTiles() []Tile {
	cx, cy := project(m.CenterLat, m.CenterLng, m.Zoom)
	halfW, halfH := float64(m.ViewportW)/2, float64(m.ViewportH)/2
	maxTile := int(math.Exp2(float64(m.Zoom))) - 1
	x0 := int(math.Floor((cx - halfW) / TileSize))
	x1 := int(math.Floor((cx + halfW) / TileSize))
	y0 := int(math.Floor((cy - halfH) / TileSize))
	y1 := int(math.Floor((cy + halfH) / TileSize))
	var tiles []Tile
	for y := y0; y <= y1; y++ {
		if y < 0 || y > maxTile {
			continue
		}
		for x := x0; x <= x1; x++ {
			if x < 0 || x > maxTile {
				continue
			}
			tiles = append(tiles, Tile{Z: m.Zoom, X: x, Y: y})
		}
	}
	return tiles
}

// QueryURL renders the viewport plus filter state as an Airbnb-style search
// URL — the form the composite case study's trace collector records.
// Filters are rendered in sorted key order for determinism.
func (m *MapView) QueryURL(place string, filters map[string]string) string {
	swLat, swLng, neLat, neLng := m.Bounds()
	var sb strings.Builder
	fmt.Fprintf(&sb, "https://example.com/s/%s?source=map", strings.ReplaceAll(place, " ", "-"))
	fmt.Fprintf(&sb, "&sw_lat=%.6f&sw_lng=%.6f&ne_lat=%.6f&ne_lng=%.6f", swLat, swLng, neLat, neLng)
	fmt.Fprintf(&sb, "&search_by_map=true&zoom=%d", m.Zoom)
	keys := make([]string, 0, len(filters))
	for k := range filters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&sb, "&%s=%s", k, filters[k])
	}
	return sb.String()
}
