package engine

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/leakcheck"
	"repro/internal/morsel"
)

// ctxTestQueries exercise every execution path that honors cancellation:
// the histogram fast path, the general scan+aggregate, and a sort+limit.
var ctxTestQueries = []string{
	"SELECT ROUND((y - 56) / 0.05), COUNT(*) FROM dataroad WHERE x >= 8.2 AND x <= 10.5 GROUP BY ROUND((y - 56) / 0.05) ORDER BY ROUND((y - 56) / 0.05)",
	"SELECT ROUND(y, 1), COUNT(*), SUM(x) FROM dataroad WHERE z >= 0 GROUP BY ROUND(y, 1) ORDER BY ROUND(y, 1)",
	"SELECT x, y FROM dataroad WHERE y >= 56.5 ORDER BY x, y LIMIT 100",
}

// TestQueryCtxAmpleDeadline: with a generous deadline QueryCtx returns
// exactly what Query returns — the ctx plumbing must not perturb results.
func TestQueryCtxAmpleDeadline(t *testing.T) {
	leakcheck.Check(t)
	eng := New(ProfileMemory)
	eng.SetParallelism(4)
	eng.Register(dataset.Roads(2, 3*morsel.Size))

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, q := range ctxTestQueries {
		want, err := eng.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		got, err := eng.QueryCtx(ctx, q)
		if err != nil {
			t.Fatalf("%s: QueryCtx: %v", q, err)
		}
		mustEqualResults(t, q, want, got)
	}
}

// TestQueryCtxPreCancelled: an already-cancelled context aborts execution
// before any scan work, surfacing context.Canceled, and leaves no morsel
// workers behind.
func TestQueryCtxPreCancelled(t *testing.T) {
	leakcheck.Check(t)
	eng := New(ProfileMemory)
	eng.SetParallelism(4)
	eng.Register(dataset.Roads(2, 3*morsel.Size))

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, q := range ctxTestQueries {
		res, err := eng.QueryCtx(ctx, q)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want Canceled", q, err)
		}
		if res != nil {
			t.Fatalf("%s: cancelled query returned a result", q)
		}
	}
}

// TestQueryCtxExpiredDeadline: a deadline in the past reads as
// DeadlineExceeded, the classification serve's degradation ladder keys on.
func TestQueryCtxExpiredDeadline(t *testing.T) {
	leakcheck.Check(t)
	eng := New(ProfileMemory)
	eng.SetParallelism(2)
	eng.Register(dataset.Roads(2, 3*morsel.Size))

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := eng.QueryCtx(ctx, ctxTestQueries[0]); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}
