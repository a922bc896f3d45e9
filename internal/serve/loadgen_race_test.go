package serve

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/leakcheck"
)

// TestLoadgenRace is the serving subsystem's integration proof, meant to
// run under -race: 32 concurrent synthetic users drive the road dataset
// through the full HTTP stack for over a thousand queries. Every issued
// request must receive a response, per-session applied sequence numbers
// must never regress, every session must end holding its latest result,
// and coalescing must have actually saved backend executions.
func TestLoadgenRace(t *testing.T) {
	if testing.Short() {
		t.Skip("loadgen integration in -short mode")
	}
	leakcheck.Check(t)
	backends, err := RoadBackends(1, 50000, engine.ProfileMemory)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(backends, Config{Workers: 4, QueueDepth: 8, ExecDelay: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Drain(ctx)
	})

	const users, maxEvents = 32, 40
	report, err := RunLoad(LoadConfig{
		BaseURL:     ts.URL,
		Users:       users,
		Adjustments: 4,
		MaxEvents:   maxEvents,
		Seed:        7,
		TimeScale:   0.02,
		Dims:        RoadLoadDims(),
		SQLEvery:    10,
		Table:       "dataroad",
	})
	if err != nil {
		t.Fatal(err)
	}

	if report.Issued < 1000 {
		t.Errorf("issued %d queries, want >= 1000 (acceptance floor)", report.Issued)
	}
	if report.Responded != report.Issued {
		t.Errorf("dropped responses: issued %d, responded %d", report.Issued, report.Responded)
	}
	if report.Errors != 0 {
		t.Errorf("errors = %d, want 0", report.Errors)
	}
	if report.Server.Regressions != 0 {
		t.Errorf("per-session sequence regressions = %d, want 0", report.Server.Regressions)
	}
	for _, u := range report.Users {
		if !u.GotLatest {
			t.Errorf("%s: final applied seq %d < latest issued %d", u.Session, u.FinalSeq, u.MaxSeq)
		}
	}
	if report.Server.Executed >= report.Server.Issued {
		t.Errorf("executed %d >= issued %d: coalescing saved nothing",
			report.Server.Executed, report.Server.Issued)
	}
	if report.Server.Coalesced == 0 {
		t.Error("coalesced counter is zero")
	}
	t.Logf("issued=%d executed=%d coalesced=%d shed=%d lcv=%d (%.1f%%) qif=%.1f/s p95=%.1fms wall=%v",
		report.Issued, report.Server.Executed, report.Server.Coalesced, report.Server.Shed,
		report.Server.LCV, 100*report.Server.LCVFraction, report.QIFPerSec, report.P95MS, report.Wall)
}
