// Package fault implements deterministic, seeded fault injection for the
// serving layer's chaos tests and `idevald -chaos` mode. An Injector wraps a
// backend operation with latency spikes, error bursts, long stalls, and a
// constant slow-worker perturbation, drawn from a named Profile.
//
// Determinism is the point: every fault decision is a pure function of
// (seed, operation index), hashed through splitmix64 — never the wall
// clock, never math/rand global state. Two runs with the same seed and the
// same operation interleaving observe the same schedule of faults, which is
// what lets the chaos tests compare deadline-aware serving against the
// no-deadline baseline on identical adversity and assert a fixed LCV bound.
package fault

import (
	"context"
	"errors"
	"sync/atomic"
	"time"
)

// ErrInjected is the error returned by injected operation failures. Serving
// code matches it with errors.Is to distinguish injected faults (retryable)
// from real execution errors (not).
var ErrInjected = errors.New("fault: injected backend error")

// Profile parameterizes an injector. Probabilities are per operation and
// independent; zero values disable that fault class.
type Profile struct {
	Name string

	BaseDelay  time.Duration // constant added latency on every op (slow worker)
	SpikeProb  float64       // probability of a latency spike
	SpikeDelay time.Duration
	ErrProb    float64 // probability the op fails with ErrInjected
	StallProb  float64 // probability of a long stall
	StallDelay time.Duration
}

// Profiles are the named fault profiles `idevald -chaos` selects from;
// internal/serve/chaos_test.go runs the ladder under the stall profile.
// Delays are sized against metrics.DefaultConstraint (500 ms): spikes eat a
// chunk of the budget, stalls blow it outright unless a deadline cuts them.
var Profiles = []Profile{
	{Name: "spikes", SpikeProb: 0.2, SpikeDelay: 40 * time.Millisecond},
	{Name: "errors", ErrProb: 0.15},
	{Name: "stall", StallProb: 0.25, StallDelay: 900 * time.Millisecond},
	{Name: "slow", BaseDelay: 8 * time.Millisecond},
	{
		Name:      "mixed",
		BaseDelay: 2 * time.Millisecond,
		SpikeProb: 0.1, SpikeDelay: 40 * time.Millisecond,
		ErrProb:   0.05,
		StallProb: 0.05, StallDelay: 900 * time.Millisecond,
	},
}

// ProfileByName returns the named profile. Unknown names return false.
func ProfileByName(name string) (Profile, bool) {
	for _, p := range Profiles {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// Op is one operation's injected fault: a delay to sleep before running it,
// and whether it fails outright.
type Op struct {
	Delay time.Duration
	Err   bool
	Stall bool // Delay came from the stall class (diagnostic)
}

// Stats counts injected faults, for reports and test assertions.
type Stats struct {
	Ops    int64
	Spikes int64
	Errs   int64
	Stalls int64
}

// Injector draws a deterministic fault schedule from (seed, op counter).
// Safe for concurrent use: the counter is atomic, so concurrent callers
// partition the schedule (each index is drawn exactly once); which caller
// gets which index depends on interleaving, but the multiset of faults over
// any N operations does not.
type Injector struct {
	profile atomic.Pointer[Profile]
	seed    uint64
	ops     atomic.Int64
	spikes  atomic.Int64
	errs    atomic.Int64
	stalls  atomic.Int64
}

// New creates an injector for the profile with the given seed.
func New(profile Profile, seed int64) *Injector {
	in := &Injector{seed: uint64(seed)}
	in.profile.Store(&profile)
	return in
}

// Profile returns the injector's profile.
func (in *Injector) Profile() Profile { return *in.profile.Load() }

// SetProfile swaps the active profile — chaos tests use it to clear a fault
// mid-run and watch recovery. Safe to call while operations are in flight;
// the op counter (and with it determinism of the index sequence) carries
// over.
func (in *Injector) SetProfile(p Profile) { in.profile.Store(&p) }

// Stats returns the counts of injected faults so far.
func (in *Injector) Stats() Stats {
	return Stats{
		Ops:    in.ops.Load(),
		Spikes: in.spikes.Load(),
		Errs:   in.errs.Load(),
		Stalls: in.stalls.Load(),
	}
}

// splitmix64 is the SplitMix64 finalizer: a bijective avalanche mix whose
// output over sequential inputs passes BigCrush — plenty for fault
// scheduling.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// uniform returns a uniform [0,1) draw for (seed, op index k, fault class).
func (in *Injector) uniform(k int64, class uint64) float64 {
	h := splitmix64(in.seed ^ splitmix64(uint64(k)*3+class))
	return float64(h>>11) / float64(1<<53)
}

// Next draws the fault for the next operation index.
func (in *Injector) Next() Op {
	k := in.ops.Add(1) - 1
	p := *in.profile.Load()
	op := Op{Delay: p.BaseDelay}
	if p.ErrProb > 0 && in.uniform(k, 1) < p.ErrProb {
		in.errs.Add(1)
		op.Err = true
		return op
	}
	if p.StallProb > 0 && in.uniform(k, 2) < p.StallProb {
		in.stalls.Add(1)
		op.Delay += p.StallDelay
		op.Stall = true
		return op
	}
	if p.SpikeProb > 0 && in.uniform(k, 3) < p.SpikeProb {
		in.spikes.Add(1)
		op.Delay += p.SpikeDelay
	}
	return op
}

// Sleep blocks for d or until ctx expires, whichever is first — this is
// what lets a deadline cut an injected stall short instead of serving it in
// full. A nil ctx sleeps the full duration.
func Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		if ctx != nil {
			return ctx.Err()
		}
		return nil
	}
	if ctx == nil {
		time.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return ctx.Err()
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Do draws the next fault and applies it: sleeps the injected delay (cut
// short by ctx) and returns ErrInjected for error faults or the ctx error
// for deadline expiry during the delay. A nil return means the wrapped
// operation should run normally.
func (in *Injector) Do(ctx context.Context) error {
	op := in.Next()
	if err := Sleep(ctx, op.Delay); err != nil {
		return err
	}
	if op.Err {
		return ErrInjected
	}
	return nil
}
