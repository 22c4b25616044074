package main

import (
	"fmt"
	"sync"
	"time"

	"esr/internal/clock"
	"esr/internal/consistency"
	"esr/internal/core"
	"esr/internal/et"
)

const (
	// maxInflight bounds the operations in progress at once.  When it is
	// reached the generator waits, and the wait shows as lateness.
	maxInflight = 512
	// dispatchSlack is how late the generator may fall behind before it
	// refuses the rest of the phase, so an overloaded phase cannot
	// stall the run.  Refused operations count as failed.
	dispatchSlack = time.Second
	// pollEvery is the visibility tracker's polling period.
	pollEvery = time.Millisecond
	// delayedAfter is the gate wait beyond which a read counts as
	// parked.
	delayedAfter = 100 * time.Microsecond
	gcEvery      = time.Second
	sampleEvery  = 10 * time.Millisecond
	// drainTimeout bounds the wait for in-flight operations at the end
	// of a phase; reads may park up to the gate's 10s wait timeout.
	drainTimeout = 30 * time.Second
)

// sessEvent is one completed session operation, kept for the
// read-your-writes and monotonic-reads checks.
type sessEvent struct {
	sess       int
	key        string
	write      bool
	start, end time.Time
	value      int64 // reads only
}

// outcome is what one phase of open-loop load measured.
type outcome struct {
	commit, visible, late dist // ms from due time
	read, readStrong      dist // ms from due time
	op                    dist // ms from due time, every successful operation
	gateWait              map[consistency.Level]*dist
	snapshot              dist // µs: read call minus gate wait
	gc                    dist // ms per GCVersions call
	gcCollected           int

	attempted, failed int // failed includes refused operations and gate timeouts
	errs              map[string]int
	writesAcked       int
	reads, delayed    int
	gateTimeouts      int // reads whose gate wait reached its timeout
	staleReads        int // bounded reads beyond Δt
	unvisible         int // acked writes not visible when the phase ended
	pending           []pendingWrite
	loadEnd           time.Time // due time of the phase's last request
	model             map[string]int64
	sessLog           []sessEvent

	// Sampled and counted only when traced.
	outBacklogMax, inBacklogMax int
	stalenessMax                time.Duration
	syncs, applied, held        uint64
}

func newOutcome() *outcome {
	o := &outcome{gateWait: map[consistency.Level]*dist{}, errs: map[string]int{}, model: map[string]int64{}}
	for _, l := range readLevels {
		o.gateWait[l] = &dist{}
	}
	return o
}

// pendingWrite is an acked update the tracker has not yet seen applied
// at every replica.
type pendingWrite struct {
	id     et.ID
	key    string
	origin int
	need   uint64
	due    time.Time
}

// visTracker polls pending writes until each is visible everywhere and
// records the time from due to visibility.
type visTracker struct {
	sys  *system
	mu   sync.Mutex
	pend []pendingWrite
	vis  dist
	stop chan struct{}
	done chan struct{}
}

func startTracker(sys *system) *visTracker {
	v := &visTracker{sys: sys, stop: make(chan struct{}), done: make(chan struct{})}
	go v.loop()
	return v
}

func (v *visTracker) add(p pendingWrite) {
	v.mu.Lock()
	v.pend = append(v.pend, p)
	v.mu.Unlock()
}

func (v *visTracker) loop() {
	defer close(v.done)
	for {
		select {
		case <-v.stop:
			return
		default:
		}
		v.poll()
		time.Sleep(pollEvery)
	}
}

func (v *visTracker) poll() {
	v.mu.Lock()
	batch := v.pend
	v.pend = nil
	v.mu.Unlock()
	var keep []pendingWrite
	var seen dist
	for _, p := range batch {
		if v.sys.visible(p.id, p.key, p.origin, p.need) {
			seen.add(ms(time.Since(p.due)))
		} else {
			keep = append(keep, p)
		}
	}
	v.mu.Lock()
	v.pend = append(keep, v.pend...)
	v.vis.xs = append(v.vis.xs, seen.xs...)
	v.mu.Unlock()
}

func (v *visTracker) left() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.pend)
}

// finish waits up to grace for the pending writes, stops polling and
// returns the visibility samples and the writes not yet seen visible.
func (v *visTracker) finish(grace time.Duration) (dist, []pendingWrite) {
	deadline := time.Now().Add(grace)
	for v.left() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(v.stop)
	<-v.done
	v.poll()
	return v.vis, v.pend
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// runner executes one phase of open-loop load against a system.
type runner struct {
	sys *system
	rec *recorder // nil when untraced

	mu   sync.Mutex
	out  *outcome
	done bool // the phase has returned; stragglers record nothing
	vt   *visTracker
}

// runPhase issues reqs on their schedule, each from its due time
// regardless of how earlier ones fare, waits for them, then gives
// writes up to grace to become visible everywhere.  Operations still
// running after drainTimeout count as failed.
func runPhase(sys *system, reqs []request, rec *recorder, grace time.Duration) *outcome {
	r := &runner{sys: sys, rec: rec, out: newOutcome()}
	r.out.attempted = len(reqs)
	if rec != nil {
		r.out.syncs = sys.journalSyncs()
		r.out.applied, r.out.held = siteCounts(sys)
	}
	r.vt = startTracker(sys)
	stopBG := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(1)
	go func() { defer bg.Done(); r.background(stopBG) }()

	start := time.Now()
	sem := make(chan struct{}, maxInflight)
	var wg sync.WaitGroup
	refused := 0
	var last time.Duration
	if len(reqs) > 0 {
		last = reqs[len(reqs)-1].due
	}
	r.out.loadEnd = start.Add(last)
	cutoff := time.NewTimer(last + dispatchSlack)
	defer cutoff.Stop()
dispatch:
	for i, q := range reqs {
		due := start.Add(q.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		select {
		case sem <- struct{}{}:
		case <-cutoff.C:
			refused = len(reqs) - i
			break dispatch
		}
		r.out.late.add(ms(time.Since(due)))
		wg.Add(1)
		go func(i int, q request, due time.Time) {
			defer wg.Done()
			defer func() { <-sem }()
			r.exec(i, q, due)
		}(i, q, due)
	}
	drained := make(chan struct{})
	go func() { wg.Wait(); close(drained) }()
	stuck := 0
	select {
	case <-drained:
	case <-time.After(drainTimeout):
		stuck = len(sem)
	}
	vis, pending := r.vt.finish(grace)
	close(stopBG)
	bg.Wait()

	r.mu.Lock()
	defer r.mu.Unlock()
	r.done = true
	o := r.out
	o.visible = vis
	o.pending = pending
	o.unvisible = len(pending)
	if refused > 0 {
		o.errs["refused"] += refused
	}
	if stuck > 0 {
		o.errs["stuck"] += stuck
	}
	o.failed += refused + stuck
	if rec != nil {
		o.syncs = sys.journalSyncs() - o.syncs
		a, h := siteCounts(sys)
		o.applied, o.held = a-o.applied, h-o.held
	}
	return o
}

func siteCounts(sys *system) (applied, held uint64) {
	for _, id := range sys.siteIDs() {
		st := sys.site(id).Stats()
		applied += st.Applied
		held += st.Held
	}
	return applied, held
}

// background calls GCVersions once a second, as an application should,
// and in a traced phase samples the queue and staleness gauges.
func (r *runner) background(stop <-chan struct{}) {
	gcT := time.NewTicker(gcEvery)
	defer gcT.Stop()
	var sampleC <-chan time.Time
	if r.rec != nil {
		t := time.NewTicker(sampleEvery)
		defer t.Stop()
		sampleC = t.C
	}
	for {
		select {
		case <-stop:
			return
		case <-gcT.C:
			start := time.Now()
			n := r.sys.gcVersions()
			end := time.Now()
			if r.rec != nil {
				r.rec.add(span{Name: "storage.gc", Req: fmt.Sprintf("gc@%v", start.Sub(r.rec.epoch).Round(time.Millisecond))}, start, end)
			}
			r.mu.Lock()
			r.out.gc.add(ms(end.Sub(start)))
			r.out.gcCollected += n
			r.mu.Unlock()
		case <-sampleC:
			ob := r.sys.outBacklog()
			ib, st := 0, time.Duration(0)
			for _, id := range r.sys.siteIDs() {
				s := r.sys.site(id)
				ib = max(ib, s.QueueLen())
				st = max(st, s.Staleness())
			}
			r.mu.Lock()
			r.out.outBacklogMax = max(r.out.outBacklogMax, ob)
			r.out.inBacklogMax = max(r.out.inBacklogMax, ib)
			r.out.stalenessMax = max(r.out.stalenessMax, st)
			r.mu.Unlock()
		}
	}
}

func (r *runner) fail(kind string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.done {
		r.out.failed++
		r.out.errs[kind]++
	}
}

// exec runs one operation and records its outcome.
func (r *runner) exec(i int, q request, due time.Time) {
	root := r.rec.id()
	req := fmt.Sprintf("op%d", i)
	start := time.Now()
	if q.kind == opWrite {
		id, need, err := r.sys.update(q)
		end := time.Now()
		if r.rec != nil {
			r.rec.add(span{Name: "engine.update", Parent: root, key: siteKey(clock.SiteID(q.site))}, start, end)
			r.rec.add(span{ID: root, Name: "bench.op", Req: req}, due, end)
		}
		if err != nil {
			r.fail("update")
			return
		}
		r.mu.Lock()
		defer r.mu.Unlock()
		if r.done {
			return
		}
		r.vt.add(pendingWrite{id: id, key: q.key, origin: q.site, need: need, due: due})
		r.out.commit.add(ms(end.Sub(due)))
		r.out.op.add(ms(end.Sub(due)))
		r.out.writesAcked++
		r.out.model[q.key]++
		if q.sess >= 0 {
			r.out.sessLog = append(r.out.sessLog, sessEvent{sess: q.sess, key: q.key, write: true, start: start, end: end})
		}
		return
	}
	res, err := r.sys.read(q, core.ReadOptions{})
	end := time.Now()
	if r.rec != nil {
		r.rec.add(span{Name: "read.call", Parent: root}, start, end)
		r.rec.add(span{ID: root, Name: "bench.op", Req: req}, due, end)
	}
	if err != nil {
		r.fail("read")
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.done {
		return
	}
	o := r.out
	o.reads++
	lat := ms(end.Sub(due))
	o.read.add(lat)
	o.op.add(lat)
	if q.level == consistency.Strong {
		o.readStrong.add(lat)
	}
	o.gateWait[q.level].add(ms(res.Waited))
	o.snapshot.add(us(end.Sub(start) - res.Waited))
	if res.Waited >= delayedAfter {
		o.delayed++
	}
	// A gate that reaches its timeout serves without saying so, so the
	// read missed its level.  Each read counts once: a bounded read
	// served beyond Δt is an oracle finding, any other timed-out read a
	// failed operation.
	timedOut := res.Waited >= consistency.DefaultWaitTimeout
	if timedOut {
		o.gateTimeouts++
	}
	switch {
	case q.level == consistency.Bounded && res.Staleness > consistency.DefaultMaxStaleness:
		o.staleReads++
	case timedOut:
		o.failed++
		o.errs["gate-timeout"]++
	}
	if q.sess >= 0 {
		o.sessLog = append(o.sessLog, sessEvent{sess: q.sess, key: q.key, start: start, end: end, value: res.Value(q.key).Num})
	}
}
