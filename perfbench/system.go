package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"esr/internal/clock"
	"esr/internal/consistency"
	"esr/internal/core"
	"esr/internal/et"
	"esr/internal/network"
	"esr/internal/op"
	"esr/internal/replica"
	"esr/internal/session"
	"esr/internal/sim"
)

// appliedTracker is what ORDUP and COMMU engines report about an
// update's application.  Both report an id they do not know as
// applied.
type appliedTracker interface {
	AppliedAt(id et.ID, site clock.SiteID) bool
	AppliedEverywhere(id et.ID) bool
}

// system is the program under test: one engine over network.Sim, or one
// engine per site over network.TCP.
type system struct {
	w     workload
	engs  []core.Engine
	engOf map[int]core.Engine // site -> engine hosting it
	nets  []network.Transport // transports this system closes
	sess  []*session.S
	dir   string

	// started counts, per key, the Inc calls begun so far (write-tcp
	// only; see visible).
	mu      sync.Mutex
	started map[string]uint64
}

// openSystem builds and starts the workload's cluster.  rec, when
// non-nil, decorates every transport with the span recorder.
func openSystem(w workload, seed int64, dir string, rec *recorder) (*system, error) {
	s := &system{w: w, engOf: map[int]core.Engine{}, dir: dir}
	var err error
	if w.tcp {
		err = s.openTCP(seed, rec)
	} else {
		err = s.openSim(seed, rec)
	}
	if err != nil {
		s.close()
		return nil, err
	}
	if w.readFrac > 0 {
		for i := 0; i < sessionPool; i++ {
			ss, err := session.New(s.engs[0])
			if err != nil {
				s.close()
				return nil, err
			}
			s.sess = append(s.sess, ss)
		}
	}
	return s, nil
}

func (s *system) wrap(t network.Transport, rec *recorder) network.Transport {
	if rec == nil {
		return t
	}
	return &tracedNet{Transport: t, rec: rec, sites: s.w.sites}
}

func (s *system) openSim(seed int64, rec *recorder) error {
	ncfg := network.Config{Seed: seed, MinLatency: minLink, MaxLatency: maxLink}
	sn, err := network.New(ncfg)
	if err != nil {
		return err
	}
	s.nets = append(s.nets, sn)
	opt := sim.Options{Transport: s.wrap(sn, rec)}
	if s.w.durable {
		if err := os.MkdirAll(s.dir, 0o755); err != nil {
			return err
		}
		opt.QueueDir = s.dir
	}
	eng, err := sim.NewEngine(s.w.method, s.w.sites, ncfg, opt)
	if err != nil {
		return err
	}
	s.engs = append(s.engs, eng)
	for i := 1; i <= s.w.sites; i++ {
		s.engOf[i] = eng
	}
	return nil
}

// openTCP runs each site as its own core.Cluster with LocalSites on its
// own network.TCP over 127.0.0.1, wired the way cmd/esrnode wires a
// node.  The order server rides with site 1.
func (s *system) openTCP(seed int64, rec *recorder) error {
	s.started = map[string]uint64{}
	n := s.w.sites
	tcps := make([]*network.TCP, n+1)
	for i := 1; i <= n; i++ {
		self := clock.SiteID(i)
		local := []clock.SiteID{self, core.SnapSite(self)}
		if i == 1 {
			local = append(local, core.SequencerSiteFor(0))
		}
		t, err := network.NewTCP(network.TCPOptions{Listen: "127.0.0.1:0", Local: local, Seed: seed + int64(i)})
		if err != nil {
			return err
		}
		tcps[i] = t
		s.nets = append(s.nets, t)
	}
	for i := 1; i <= n; i++ {
		for j := 1; j <= n; j++ {
			if i != j {
				tcps[i].AddPeer(clock.SiteID(j), tcps[j].Addr())
				tcps[i].AddPeer(core.SnapSite(clock.SiteID(j)), tcps[j].Addr())
			}
		}
		if i != 1 {
			tcps[i].AddPeer(core.SequencerSiteFor(0), tcps[1].Addr())
		}
	}
	for i := 1; i <= n; i++ {
		eng, err := sim.NewEngine(s.w.method, n, network.Config{}, sim.Options{
			Transport:  s.wrap(tcps[i], rec),
			LocalSites: []clock.SiteID{clock.SiteID(i)},
		})
		if err != nil {
			return err
		}
		s.engs = append(s.engs, eng)
		s.engOf[i] = eng
	}
	return nil
}

func (s *system) close() {
	for _, e := range s.engs {
		_ = e.Close() // Close of the chassis always returns nil
	}
	for _, t := range s.nets {
		_ = t.Close() // shutting down; nothing is left to deliver
	}
	if s.dir != "" {
		_ = os.RemoveAll(s.dir) // scratch journals of a finished run
	}
}

func (s *system) site(id int) *replica.Site {
	return s.engOf[id].Cluster().Site(clock.SiteID(id))
}

func (s *system) siteIDs() []int {
	ids := make([]int, s.w.sites)
	for i := range ids {
		ids[i] = i + 1
	}
	return ids
}

// update issues one Inc of 1.  need is the evidence visible uses on
// write-tcp: how many Incs of the key had started when this one
// returned.
func (s *system) update(r request) (et.ID, uint64, error) {
	ops := []op.Op{op.IncOp(r.key, 1)}
	if s.started != nil {
		s.mu.Lock()
		s.started[r.key]++
		s.mu.Unlock()
	}
	var id et.ID
	var err error
	if r.sess >= 0 {
		id, err = s.sess[r.sess].Update(clock.SiteID(r.site), ops)
	} else {
		id, err = s.engOf[r.site].Update(clock.SiteID(r.site), ops)
	}
	var need uint64
	if s.started != nil {
		s.mu.Lock()
		need = s.started[r.key]
		s.mu.Unlock()
	}
	return id, need, err
}

// read serves one read at its level from its site.
func (s *system) read(r request, o core.ReadOptions) (et.QueryResult, error) {
	if r.sess >= 0 {
		return s.sess[r.sess].Read(clock.SiteID(r.site), []string{r.key})
	}
	o.Level = r.level
	return core.ReadAtSite(s.engOf[r.site].Cluster(), clock.SiteID(r.site), []string{r.key}, o)
}

// visible reports whether an acknowledged update is applied at every
// replica.  On one cluster the engine knows every id it issued.  On
// write-tcp only the origin's engine knows the id, so remote sites are
// checked through ORDUP's total order: once a site has applied as many
// Incs to the key as had been started when this one returned, it has
// applied every Inc ordered at or before this one.
func (s *system) visible(id et.ID, key string, origin int, need uint64) bool {
	if !s.w.tcp {
		return s.engs[0].(appliedTracker).AppliedEverywhere(id)
	}
	if !s.engOf[origin].(appliedTracker).AppliedAt(id, clock.SiteID(origin)) {
		return false
	}
	for _, site := range s.siteIDs() {
		if site != origin && s.site(site).Epoch(key) < need {
			return false
		}
	}
	return true
}

// quiesce waits until every engine's queues are drained.
func (s *system) quiesce(timeout time.Duration) error {
	for _, e := range s.engs {
		if err := e.Cluster().Quiesce(timeout); err != nil {
			return err
		}
	}
	return nil
}

// gcVersions prunes version history below each site's SAFETIME, as
// the facade's GCVersions does.
func (s *system) gcVersions() int {
	n := 0
	for _, id := range s.siteIDs() {
		st := s.site(id)
		n += st.MV.GC(st.SafeTime())
	}
	return n
}

// journalSyncs sums fsyncs over every engine's journals and WALs.
func (s *system) journalSyncs() uint64 {
	var n uint64
	for _, e := range s.engs {
		n += e.Cluster().JournalSyncs()
	}
	return n
}

func (s *system) outBacklog() int {
	m := 0
	for _, id := range s.siteIDs() {
		m = max(m, s.engOf[id].Cluster().OutBacklog(clock.SiteID(id)))
	}
	return m
}

// value reads an object's latest value at a site through the
// eventual read path, which never parks on a gate.
func (s *system) value(site int, key string) (int64, error) {
	res, err := core.ReadAtSite(s.engOf[site].Cluster(), clock.SiteID(site), []string{key},
		core.ReadOptions{Level: consistency.Eventual})
	return res.Value(key).Num, err
}

// pendingLeaks counts, after quiescence, the objects a site still
// counts as having unapplied updates.  Strong reads of such an object
// park until their gate times out.
func (s *system) pendingLeaks(model map[string]int64) int {
	n := 0
	for _, id := range s.siteIDs() {
		st := s.site(id)
		for k := range model {
			if st.Pending(k) > 0 {
				n++
			}
		}
	}
	return n
}

// converged checks that every replica of every object agrees; on one
// cluster this is core's Converged, across TCP nodes the oracle's
// per-key comparison covers it.
func (s *system) converged() error {
	if s.w.tcp {
		return nil
	}
	if ok, obj := s.engs[0].Cluster().Converged(); !ok {
		return fmt.Errorf("replicas diverge on %q", obj)
	}
	return nil
}
