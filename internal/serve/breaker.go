package serve

import (
	"sync"
	"time"
)

// breaker is a consecutive-failure circuit breaker guarding the backend. A
// stalling or erroring backend trips it open after threshold consecutive
// failures; while open, requests are rejected at admission with 503 +
// Retry-After instead of piling onto the queue behind a backend that cannot
// keep up (the queue-collapse mode the paper's Figure 2 cascade describes).
// After the cooldown one probe request is let through half-open: success
// closes the breaker, failure reopens it for another cooldown, and a probe
// that ends without a backend execution of its own (a cached answer, a shed,
// a drain refusal) hands the probe back so the next request takes it.
//
// The breaker has no background goroutine — state advances lazily on the
// clock readings its callers pass in, which keeps Drain's "no goroutines
// left behind" guarantee trivial.
type breaker struct {
	mu        sync.Mutex
	threshold int           // consecutive failures that trip it; <= 0 disables
	cooldown  time.Duration // open period before the half-open probe

	consecutive int
	openUntil   time.Time // zero when closed
	probing     bool      // half-open probe in flight
	trips       int64
	rejects     int64
}

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown}
}

// allow reports whether a request may proceed. When it may not, retryAfter
// is the suggested client backoff (the remaining cooldown, floored at one
// interval so a Retry-After header never rounds to zero).
func (b *breaker) allow(now time.Time) (ok bool, retryAfter time.Duration) {
	if b == nil || b.threshold <= 0 {
		return true, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.openUntil.IsZero() {
		return true, 0
	}
	if now.Before(b.openUntil) {
		b.rejects++
		ra := b.openUntil.Sub(now)
		if ra < time.Second {
			ra = time.Second
		}
		return false, ra
	}
	// Cooldown elapsed: admit exactly one half-open probe.
	if b.probing {
		b.rejects++
		return false, b.cooldown
	}
	b.probing = true
	return true, 0
}

// success records a completed backend operation and closes the breaker.
func (b *breaker) success() {
	if b == nil || b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	b.consecutive = 0
	b.openUntil = time.Time{}
	b.probing = false
	b.mu.Unlock()
}

// failure records a failed backend operation, tripping or re-opening the
// breaker as appropriate.
func (b *breaker) failure(now time.Time) {
	if b == nil || b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.probing {
		// The half-open probe failed: straight back to open.
		b.probing = false
		b.openUntil = now.Add(b.cooldown)
		b.trips++
		return
	}
	b.consecutive++
	if b.consecutive >= b.threshold && b.openUntil.IsZero() {
		b.openUntil = now.Add(b.cooldown)
		b.consecutive = 0
		b.trips++
	}
}

// handBack returns the half-open probe held by the request that allow
// admitted at the given instant, if it still holds it: nothing it did told
// the breaker how the backend is, so the next request probes in its place.
// For any other request — admitted while closed, or whose execution already
// delivered success or failure — it changes nothing.
func (b *breaker) handBack(admitted time.Time) {
	if b == nil || b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	if b.probing && !admitted.Before(b.openUntil) {
		b.probing = false
	}
	b.mu.Unlock()
}

// stats returns the trip and reject counts.
func (b *breaker) stats() (trips, rejects int64) {
	if b == nil {
		return 0, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips, b.rejects
}

// isOpen reports whether the breaker currently rejects (for /readyz).
func (b *breaker) isOpen(now time.Time) bool {
	if b == nil || b.threshold <= 0 {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return !b.openUntil.IsZero() && now.Before(b.openUntil)
}
