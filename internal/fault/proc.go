package fault

import "time"

// Process-level chaos: deterministic schedules of faults applied to real
// shard child processes (internal/router executes them against live PIDs).
// Unlike the in-process Injector, which perturbs individual operations,
// these events kill, freeze, or blackhole a whole process — the failure
// modes a single-process fault injector cannot express.
//
// Determinism follows the same discipline as the Injector: every event is a
// pure function of (seed, event index) through splitmix64, never the wall
// clock, so two runs with the same seed play the same schedule.

// ProcKind is one class of process-level fault.
type ProcKind int

const (
	// ProcKill SIGKILLs the child: no cleanup, no goodbye — the supervisor
	// must notice the exit and restart it.
	ProcKill ProcKind = iota
	// ProcStop SIGSTOPs the child and SIGCONTs it after Pause: the process
	// is alive but frozen, so its listener accepts connections that nothing
	// answers — the "slow but alive" mode hedged gathers exist for.
	ProcStop
	// ProcBlackhole makes the child hold every in-flight and new request
	// unanswered for Pause without touching the process: the listener
	// accepts, reads, and then sits on the response — a network partition
	// as seen from the router.
	ProcBlackhole
)

// String names the kind for reports and bench output.
func (k ProcKind) String() string {
	switch k {
	case ProcKill:
		return "kill"
	case ProcStop:
		return "stop"
	case ProcBlackhole:
		return "blackhole"
	default:
		return "unknown"
	}
}

// ProcEvent is one scheduled process fault: at offset At from the start of
// the chaos run, apply Kind to shard Shard. Pause is the hold duration for
// stop/blackhole events; kills have no duration.
type ProcEvent struct {
	At    time.Duration
	Shard int
	Kind  ProcKind
	Pause time.Duration
}

// ProcProfile parameterizes a deterministic process-fault schedule: one
// event per Period, each drawing its target shard and kind from the seed.
type ProcProfile struct {
	Name   string
	Period time.Duration
	Kinds  []ProcKind
	Pause  time.Duration // hold for stop/blackhole events
}

// ProcProfiles are the named process chaos profiles Fleet.RunChaos
// schedules are drawn from (router TestFleetChaosScheduleRecovers runs
// prockill). Periods are sized so a few-second run sees several events;
// pauses are sized against metrics.DefaultConstraint (500 ms) so a frozen
// shard blows the budget unless a deadline or hedge saves the request.
var ProcProfiles = []ProcProfile{
	{Name: "prockill", Period: 600 * time.Millisecond, Kinds: []ProcKind{ProcKill}},
	{Name: "procstop", Period: 500 * time.Millisecond, Kinds: []ProcKind{ProcStop}, Pause: 300 * time.Millisecond},
	{Name: "procblackhole", Period: 500 * time.Millisecond, Kinds: []ProcKind{ProcBlackhole}, Pause: 300 * time.Millisecond},
	{
		Name:   "procmix",
		Period: 400 * time.Millisecond,
		Kinds:  []ProcKind{ProcKill, ProcStop, ProcBlackhole},
		Pause:  250 * time.Millisecond,
	},
}

// ProcProfileByName returns the named process profile. Unknown names return
// false.
func ProcProfileByName(name string) (ProcProfile, bool) {
	for _, p := range ProcProfiles {
		if p.Name == name {
			return p, true
		}
	}
	return ProcProfile{}, false
}

// Schedule draws the profile's deterministic event list for one run: events
// at Period, 2·Period, ... up to horizon, each targeting a shard and kind
// hashed from (seed, event index). The same (profile, seed, shards,
// horizon) always yields the same schedule.
func (p ProcProfile) Schedule(seed int64, shards int, horizon time.Duration) []ProcEvent {
	if p.Period <= 0 || shards <= 0 || len(p.Kinds) == 0 {
		return nil
	}
	var events []ProcEvent
	s := uint64(seed)
	for k := uint64(0); ; k++ {
		at := time.Duration(k+1) * p.Period
		if at > horizon {
			return events
		}
		ev := ProcEvent{
			At:    at,
			Shard: int(splitmix64(s^splitmix64(k*2+1)) % uint64(shards)),
			Kind:  p.Kinds[int(splitmix64(s^splitmix64(k*2+2))%uint64(len(p.Kinds)))],
		}
		if ev.Kind != ProcKill {
			ev.Pause = p.Pause
		}
		events = append(events, ev)
	}
}
