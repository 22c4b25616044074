package esr

import (
	"fmt"
	"testing"
	"time"

	"esr/internal/clock"
	"esr/internal/lock"
	"esr/internal/op"
)

// holdTx is the lock-manager transaction the engine-query tests use to
// park an accepted MSet at a replica: a WU lock on a non-commuting op
// blocks every method's apply on that object until released.
const holdTx lock.TxID = 1 << 62

// TestEngineQueryPricing pins what Engine.Query returns under ORDUP,
// COMMU and COMPE across ε ∈ {0, 1, Unlimited} in one fixed scenario:
// x = 10 everywhere, then an Inc(x, 5) that site 2 has accepted but not
// yet applied.  Every method prices that update at one unit, so a
// budget of 1 or more imports it and reads the old value, while ε = 0
// waits it out and reads the new one.
func TestEngineQueryPricing(t *testing.T) {
	type want struct {
		val   int64
		incon int
	}
	cases := []struct {
		eps  Limit
		want want
	}{
		{Epsilon(0), want{15, 0}},
		{Epsilon(1), want{10, 1}},
		{Unlimited, want{10, 1}},
	}
	for _, m := range []Method{ORDUP, COMMU, COMPE} {
		for _, tc := range cases {
			m, tc := m, tc
			t.Run(fmt.Sprintf("%s/eps=%v", m, tc.eps), func(t *testing.T) {
				t.Parallel()
				c := open(t, Config{Replicas: 2, Method: m, Seed: 31})
				if _, err := c.Update(1, Inc("x", 10)); err != nil {
					t.Fatal(err)
				}
				if err := c.Quiesce(10 * time.Second); err != nil {
					t.Fatal(err)
				}
				site := c.Engine().Cluster().Site(2)
				if err := site.Locks.Acquire(holdTx, lock.WU, op.WriteOp("x", 0)); err != nil {
					t.Fatal(err)
				}
				defer site.Locks.ReleaseAll(holdTx)
				if _, err := c.Update(1, Inc("x", 5)); err != nil {
					t.Fatal(err)
				}
				deadline := time.Now().Add(5 * time.Second)
				for site.Pending("x") == 0 {
					if time.Now().After(deadline) {
						t.Fatal("site 2 never accepted the update")
					}
					time.Sleep(time.Millisecond)
				}
				if tc.eps == 0 {
					// The conservative read drains; let the apply through
					// once the query is parked.
					time.AfterFunc(20*time.Millisecond, func() { site.Locks.ReleaseAll(holdTx) })
				}
				res, err := c.Engine().Query(clock.SiteID(2), []string{"x"}, tc.eps)
				if err != nil {
					t.Fatalf("Query: %v", err)
				}
				got := want{res.Value("x").Num, res.Inconsistency}
				if got != tc.want {
					t.Errorf("Query(ε=%v) = {x=%d, inconsistency=%d}, want {x=%d, inconsistency=%d}",
						tc.eps, got.val, got.incon, tc.want.val, tc.want.incon)
				}
				if res.Epsilon != tc.eps {
					t.Errorf("Query(ε=%v).Epsilon = %v", tc.eps, res.Epsilon)
				}
				site.Locks.ReleaseAll(holdTx)
				if err := c.Quiesce(10 * time.Second); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
