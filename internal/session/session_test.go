package session

import (
	"errors"
	"testing"
	"time"

	"esr/internal/clock"
	"esr/internal/core"
	"esr/internal/network"
	"esr/internal/op"
	"esr/internal/sim"
)

func newSession(t *testing.T, kind sim.EngineKind, net network.Config) (*S, core.Engine) {
	t.Helper()
	eng, err := sim.NewEngine(kind, 3, net, sim.Options{})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	t.Cleanup(func() { eng.Close() })
	s, err := New(eng)
	if err != nil {
		t.Fatalf("New session: %v", err)
	}
	return s, eng
}

func TestUnsupportedEngine(t *testing.T) {
	eng, err := sim.NewEngine(sim.TwoPC, 2, network.Config{Seed: 1}, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := New(eng); !errors.Is(err, ErrUnsupported) {
		t.Errorf("New on 2PC = %v, want ErrUnsupported", err)
	}
}

// TestReadYourWrites: with slow links, a bare read at a remote site
// misses the session's fresh write, but a session read waits for it.
func TestReadYourWrites(t *testing.T) {
	s, eng := newSession(t, sim.COMMU, network.Config{
		Seed: 1, MinLatency: 3 * time.Millisecond, MaxLatency: 8 * time.Millisecond,
	})
	if _, err := s.Update(1, []op.Op{op.IncOp("x", 42)}); err != nil {
		t.Fatalf("Update: %v", err)
	}
	// The bare engine query at site 3 would likely race propagation; the
	// session read must always see the write.
	res, err := s.Read(3, []string{"x"})
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if res.Value("x").Num != 42 {
		t.Fatalf("session read read %v before its own write", res.Value("x"))
	}
	_ = eng
}

func TestReadYourWritesEveryTrackedMethod(t *testing.T) {
	for _, kind := range []sim.EngineKind{sim.ORDUPSeq, sim.COMMU, sim.RITUSV} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			t.Parallel()
			s, _ := newSession(t, kind, network.Config{
				Seed: 2, MinLatency: 2 * time.Millisecond, MaxLatency: 6 * time.Millisecond,
			})
			o := op.IncOp("k", 7)
			if kind == sim.RITUSV {
				o = op.WriteOp("k", 7)
			}
			if _, err := s.Update(1, []op.Op{o}); err != nil {
				t.Fatalf("Update: %v", err)
			}
			res, err := s.Read(2, []string{"k"})
			if err != nil {
				t.Fatalf("Read: %v", err)
			}
			if res.Value("k").Num != 7 {
				t.Errorf("read %v, want own write 7", res.Value("k"))
			}
		})
	}
}

// TestReadYourWritesTimesOutUnderPartition: the guarantee degrades into
// an explicit error, never a silent stale read.
func TestReadYourWritesTimesOutUnderPartition(t *testing.T) {
	eng, err := sim.NewEngine(sim.COMMU, 3, network.Config{Seed: 3}, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	s, err := NewWith(eng, Config{ReadYourWrites: true, WaitTimeout: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	eng.Cluster().Net.Partition([]clock.SiteID{1, core.SequencerSite}, []clock.SiteID{3})
	if _, err := s.Update(1, []op.Op{op.IncOp("x", 1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(3, []string{"x"}); !errors.Is(err, ErrGuaranteeTimeout) {
		t.Errorf("read at partitioned site = %v, want ErrGuaranteeTimeout", err)
	}
	// The same-side read works immediately.
	if _, err := s.Read(1, []string{"x"}); err != nil {
		t.Errorf("same-side read: %v", err)
	}
	eng.Cluster().Net.Heal()
	if err := eng.Cluster().Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestMonotonicReads: after observing fresh state at one site, a session
// read at a stale site waits instead of reading backwards in time.
func TestMonotonicReads(t *testing.T) {
	eng, err := sim.NewEngine(sim.COMMU, 3, network.Config{Seed: 4}, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	s, err := NewWith(eng, Config{MonotonicReads: true, WaitTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	// Another client (not the session) writes; propagation to site 3 is
	// blocked by a partition.
	eng.Cluster().Net.Partition([]clock.SiteID{1, 2, core.SequencerSite}, []clock.SiteID{3})
	if _, err := eng.Update(1, []op.Op{op.IncOp("x", 5)}); err != nil {
		t.Fatal(err)
	}
	// Wait for the write to land locally, then the session reads the
	// fresh state at site 1 ...
	deadline := time.Now().Add(5 * time.Second)
	for eng.Cluster().Site(1).Store.Get("x").Num != 5 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	res, err := s.Read(1, []string{"x"})
	if err != nil || res.Value("x").Num != 5 {
		t.Fatalf("first read = %v/%v", res.Value("x"), err)
	}
	// ... then reads at stale site 3: it must wait for the heal rather
	// than read the older state.
	done := make(chan et_result, 1)
	go func() {
		r, err := s.Read(3, []string{"x"})
		done <- et_result{r.Value("x").Num, err}
	}()
	select {
	case r := <-done:
		t.Fatalf("monotonic read returned early with %d/%v", r.num, r.err)
	case <-time.After(20 * time.Millisecond):
	}
	eng.Cluster().Net.Heal()
	select {
	case r := <-done:
		if r.err != nil || r.num != 5 {
			t.Fatalf("monotonic read = %d/%v, want 5", r.num, r.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("monotonic read never completed after heal")
	}
	if err := eng.Cluster().Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}

type et_result struct {
	num int64
	err error
}

func TestSessionListPruning(t *testing.T) {
	s, eng := newSession(t, sim.COMMU, network.Config{Seed: 5})
	for i := 0; i < 50; i++ {
		if _, err := s.Update(1, []op.Op{op.IncOp("x", 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Cluster().Quiesce(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(2, []string{"x"}); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	n := len(s.unapplied)
	s.mu.Unlock()
	if n != 0 {
		t.Errorf("session retained %d applied writes", n)
	}
}
