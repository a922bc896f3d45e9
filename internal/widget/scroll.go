// Package widget implements the query-interface widgets the case studies
// exercise: an inertial scroll view (case study 1), a range slider bound to
// crossfilter dimensions (case study 2), and a web-mercator map view plus
// discrete filter widgets (case study 3). Each widget turns user input into
// the event records of internal/trace and, ultimately, into queries.
package widget

import (
	"math"
	"time"

	"repro/internal/trace"
)

// DefaultFrame is the UI frame interval (~60 Hz).
const DefaultFrame = 16 * time.Millisecond

// ScrollView models a scrollable result list with optional inertial
// (momentum) scrolling. With inertia, a flick deposits velocity that decays
// by Friction each frame, so a single gesture coasts across hundreds of
// tuples — the paper's Figure 7a. Without inertia, content moves only while
// the wheel turns (Figure 7b).
type ScrollView struct {
	TupleHeight float64 // pixels per tuple row
	NumTuples   int
	Inertial    bool
	Friction    float64       // per-frame velocity retention, (0,1)
	MinVelocity float64       // px/frame below which coasting stops
	FrameEvery  time.Duration // frame interval

	pos float64 // scrollTop in pixels
	vel float64 // px per frame (positive scrolls down)
}

// NewScrollView builds a scroll view with the standard parameters: 60 Hz
// frames, friction 0.94 (inertial only).
func NewScrollView(numTuples int, tupleHeight float64, inertial bool) *ScrollView {
	return &ScrollView{
		TupleHeight: tupleHeight,
		NumTuples:   numTuples,
		Inertial:    inertial,
		Friction:    0.94,
		MinVelocity: 0.5,
		FrameEvery:  DefaultFrame,
	}
}

// Pos returns the current scrollTop in pixels.
func (s *ScrollView) Pos() float64 { return s.pos }

// TupleAt converts a pixel offset to a tuple index, clamped to the list.
func (s *ScrollView) TupleAt(px float64) int {
	i := int(px / s.TupleHeight)
	if i < 0 {
		i = 0
	}
	if i >= s.NumTuples {
		i = s.NumTuples - 1
	}
	return i
}

// maxPos is the scroll limit in pixels.
func (s *ScrollView) maxPos() float64 {
	return float64(s.NumTuples) * s.TupleHeight
}

// Flick adds velocity from a flick gesture (px/frame). On a non-inertial
// view a flick scrolls immediately by the impulse and deposits no velocity.
func (s *ScrollView) Flick(impulse float64) {
	if s.Inertial {
		s.vel += impulse
		return
	}
	s.move(impulse)
}

// Stop kills any coasting velocity (finger touches down).
func (s *ScrollView) Stop() { s.vel = 0 }

// Coasting reports whether the view is still moving.
func (s *ScrollView) Coasting() bool { return math.Abs(s.vel) >= s.MinVelocity }

// Step advances one frame at virtual time now. It returns the scroll event
// for the frame and whether the view moved.
func (s *ScrollView) Step(now time.Duration) (trace.ScrollEvent, bool) {
	if !s.Coasting() {
		s.vel = 0
		return trace.ScrollEvent{}, false
	}
	delta := s.move(s.vel)
	s.vel *= s.Friction
	if delta == 0 {
		// Hit an edge: momentum dies.
		s.vel = 0
		return trace.ScrollEvent{}, false
	}
	return trace.ScrollEvent{
		At:        now,
		ScrollTop: s.pos,
		ScrollNum: s.TupleAt(s.pos),
		Delta:     delta,
	}, true
}

// Wheel applies a direct (non-inertial) wheel tick of the given pixel delta
// at time now, returning the event.
func (s *ScrollView) Wheel(now time.Duration, delta float64) (trace.ScrollEvent, bool) {
	moved := s.move(delta)
	if moved == 0 {
		return trace.ScrollEvent{}, false
	}
	return trace.ScrollEvent{
		At:        now,
		ScrollTop: s.pos,
		ScrollNum: s.TupleAt(s.pos),
		Delta:     moved,
	}, true
}

// move shifts the position by delta px, clamped, returning the achieved
// delta.
func (s *ScrollView) move(delta float64) float64 {
	old := s.pos
	s.pos += delta
	if s.pos < 0 {
		s.pos = 0
	}
	if mx := s.maxPos(); s.pos > mx {
		s.pos = mx
	}
	return s.pos - old
}
