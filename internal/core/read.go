// The unified consistency-level read path (DESIGN.md §13).  Every
// method engine serves its queries through ReadAtSite: the level picks
// a snapshot timestamp, the SAFETIME gate parks reads the local replica
// cannot yet serve, and the MVStore answers them lock-free.  No code on
// this path touches the lock manager (esrvet rule A11 enforces that).

package core

import (
	"fmt"
	"sort"
	"time"

	"esr/internal/clock"
	"esr/internal/consistency"
	"esr/internal/divergence"
	"esr/internal/et"
	"esr/internal/op"
	"esr/internal/replica"
	"esr/internal/trace"
)

// ReadOptions selects how a consistency-level read executes.  The zero
// value is an eventual read with an unlimited ε budget.
type ReadOptions struct {
	// Level is the consistency level from the menu.
	Level consistency.Level
	// Epsilon bounds the inconsistency a bounded read may import
	// (divergence.Unlimited when zero-valued via WithDefaults).
	Epsilon divergence.Limit
	// MaxStaleness is the bounded level's Δt: the read proceeds only
	// while the site's wall-clock staleness is at most Δt.
	MaxStaleness time.Duration
	// MinTS is the session level's high-water mark: the read waits until
	// the SAFETIME watermark passes it (read-your-writes).
	MinTS clock.Timestamp
	// WaitTimeout caps how long the read parks on the delayed-read gate
	// before proceeding with what the site has.
	WaitTimeout time.Duration

	// budget, when set, prices every read at any level against an exact
	// ε (zero is serializable, not unlimited).  QueryOptions, SpecOptions
	// and PricedOptions set it for the paper's query ETs.
	budget *budget
}

// budget is an exact ε for ReadAtSite: one limit for the whole query,
// or a per-object spec (the §5.1 spatial-consistency dimension).
type budget struct {
	eps   divergence.Limit
	spec  *divergence.Spec
	price Pricer // nil: the cluster's installed rule
}

// QueryOptions returns the options of the paper's query ET (§3.1): an
// eventual-level read of the latest local state whose reads are priced
// against eps, draining an object's overlapping updates once the budget
// cannot absorb its price.
func QueryOptions(eps divergence.Limit) ReadOptions {
	return ReadOptions{budget: &budget{eps: eps}}
}

// SpecOptions is QueryOptions under a per-object ε specification: each
// object's read is charged against its own budget, so one hot object
// exhausting its budget does not force conservative reads of unrelated
// objects.  The result's Inconsistency is the total across objects.
func SpecOptions(spec divergence.Spec) ReadOptions {
	return ReadOptions{budget: &budget{spec: &spec}}
}

// PricedOptions is QueryOptions with reads priced by price instead of
// the cluster's installed rule — for budgets kept in other units, such
// as COMMU's value-bounded queries.
func PricedOptions(eps divergence.Limit, price Pricer) ReadOptions {
	return ReadOptions{budget: &budget{eps: eps, price: price}}
}

// withDefaults fills unset knobs.
func (o ReadOptions) withDefaults() ReadOptions {
	if o.MaxStaleness <= 0 {
		o.MaxStaleness = consistency.DefaultMaxStaleness
	}
	if o.WaitTimeout <= 0 {
		o.WaitTimeout = consistency.DefaultWaitTimeout
	}
	if o.Epsilon == 0 {
		o.Epsilon = divergence.Unlimited
	}
	return o
}

// Pricer is a read-pricing rule: the inconsistency units reading object
// at s now would import, given the object's epoch when the query began.
type Pricer func(s *replica.Site, object string, baseline uint64) int

// SetPricer installs the method's read-pricing rule.  Engines call it
// once while they are built, before any read runs; nil restores
// OverlapCost.
func (c *Cluster) SetPricer(p Pricer) { c.pricer = p }

// OverlapCost is the default read-pricing rule: update ETs applied at the
// site since the query began (epoch delta) plus update ETs queued but not
// yet applied (staleness), both restricted to the object being read.
// Together they count the update ETs the query overlaps on that object —
// the §2.1 error bound.
func OverlapCost(s *replica.Site, object string, baseline uint64) int {
	return s.Pending(object) + int(s.Epoch(object)-baseline)
}

// ReadAtSite serves one read at the requested consistency level from the
// site's local replica.  All four levels and the engines' ε query ETs
// share this path:
//
//	strong   — drain the gate: wait until no accepted update touching a
//	           requested object remains unapplied, then read the latest
//	           local state.  Once delivery quiesces this is byte-identical
//	           to the serial-order store.
//	bounded  — if the site's staleness exceeds Δt, park until the replica
//	           catches up; then read the SAFETIME snapshot, charging each
//	           object's overlap against the ε budget.
//	session  — park until SAFETIME passes the caller's high-water mark,
//	           then read that snapshot (read-your-writes).
//	eventual — read the latest local state immediately.
//
// Priced reads (bounded, or any read built by QueryOptions and its
// siblings) follow the paper's inconsistency counter (§3.1): objects are
// read in sorted order, each priced by the cluster's rule, and an object
// whose price the budget cannot absorb drains its overlapping updates
// first — the query then runs "in the global order", paying blocking
// instead of inconsistency, without ever touching the lock manager.
//
// A gate that outlives WaitTimeout proceeds with what the site has; the
// result says so in TimedOut and esr_read_gate_timeouts_total counts it.
// Snapshot reads pin the MVStore at the chosen timestamp for their
// duration, so concurrent version GC never prunes state from under
// them.
func ReadAtSite(c *Cluster, site clock.SiteID, objects []string, o ReadOptions) (et.QueryResult, error) {
	s := c.Site(site)
	if s == nil {
		return et.QueryResult{}, fmt.Errorf("core: unknown site %v", site)
	}
	o = o.withDefaults()
	qid := c.NextET(site)
	sm := c.SiteMetrics(site)

	sorted := append([]string(nil), objects...)
	sort.Strings(sorted)
	baseline := make(map[string]uint64, len(sorted))
	for _, obj := range sorted {
		baseline[obj] = s.Epoch(obj)
	}

	// Gate phase: park until the level's precondition holds.
	waitStart := time.Now()
	delayed, timedOut := false, false
	switch o.Level {
	case consistency.Strong:
		for _, obj := range sorted {
			if s.Pending(obj) > 0 {
				delayed = true
			}
			if s.WaitDrained(obj, o.WaitTimeout) != nil {
				timedOut = true
			}
		}
	case consistency.Session:
		if !o.MinTS.IsZero() && s.SafeTime().Less(o.MinTS) {
			delayed = true
			if _, err := s.WaitSafe(o.MinTS, o.WaitTimeout); err != nil {
				timedOut = true
			}
		}
	case consistency.Bounded:
		if s.Staleness() > o.MaxStaleness {
			delayed = true
			if _, err := s.WaitStaleness(o.MaxStaleness, o.WaitTimeout); err != nil {
				timedOut = true
			}
		}
	}
	waited := time.Since(waitStart)
	if delayed {
		sm.ReadDelayed(o.Level).Inc()
		c.Trace.RecordSpan(trace.ReadWait, int(site), qid.String(), 0, waitStart,
			"level="+o.Level.String())
	}

	// Snapshot phase: select the timestamp and read it lock-free.
	snapStart := time.Now()
	var ts clock.Timestamp
	switch o.Level {
	case consistency.Bounded:
		ts = s.SafeTime()
	case consistency.Session:
		// Favor recency: a session write already applied at this site
		// must be visible even while SAFETIME trails the applied
		// watermark (read-your-writes beats snapshot conservatism).
		ts = s.SafeTime()
		if wm := s.Watermark(); ts.Less(wm) {
			ts = wm
		}
		if ts.Less(o.MinTS) {
			ts = o.MinTS
		}
	case consistency.Strong:
		ts = s.Watermark()
	}
	if !ts.IsZero() && (o.Level == consistency.Bounded || o.Level == consistency.Session) {
		pin := s.MV.Pin(ts)
		defer s.MV.Unpin(pin)
	}

	b := o.budget
	if b == nil && o.Level == consistency.Bounded {
		b = &budget{eps: o.Epsilon}
	}
	var ctr counters
	if b != nil {
		ctr = b.counters(sorted)
	}
	price := c.pricerFor(b)
	vals := make(map[string]op.Value, len(sorted))
	for _, obj := range sorted {
		if b != nil {
			cost := price(s, obj, baseline[obj])
			if !ctr.of(obj).TryAdd(cost) {
				// ε exhausted: drain this object's overlap away rather
				// than import it, then re-read the advanced snapshot.
				sm.QueryFallback.Inc()
				c.Trace.Recordf(trace.QueryFallback, int(site), qid.String(), "obj=%s cost=%d", obj, cost)
				if s.WaitDrained(obj, o.WaitTimeout) != nil {
					timedOut = true
				}
				if o.Level == consistency.Bounded {
					ts = s.SafeTime()
				}
			} else if cost > 0 {
				sm.QueryCharged.Inc()
				c.Trace.Recordf(trace.QueryCharged, int(site), qid.String(), "obj=%s cost=%d", obj, cost)
			}
		}
		switch o.Level {
		case consistency.Bounded, consistency.Session:
			vals[obj] = snapshotRead(s, obj, ts)
		default: // Strong drained above; Eventual takes what is there.
			vals[obj] = latestRead(s, obj)
		}
		c.RecordQueryRead(qid, obj)
	}
	c.Trace.RecordSpan(trace.ReadSnap, int(site), qid.String(), 0, snapStart,
		"level="+o.Level.String())
	if timedOut {
		sm.ReadGateTimeouts(o.Level).Inc()
	}

	st := s.Staleness()
	sm.ObserveStaleness(o.Level, st)
	res := et.QueryResult{
		Values:    vals,
		Epsilon:   o.Epsilon,
		Site:      site,
		Level:     o.Level,
		SnapTS:    ts,
		Staleness: st,
		Waited:    waited,
		TimedOut:  timedOut,
	}
	if b != nil {
		res.Inconsistency = ctr.total()
		res.Epsilon = b.limit(objects)
		if ctr.one != nil {
			// The live ε view: what this site's most recent query had left.
			sm.EpsilonBudget.Set(int64(ctr.one.Remaining()))
		}
	}
	return res, nil
}

// pricerFor resolves the pricing rule a budget's reads use.
func (c *Cluster) pricerFor(b *budget) Pricer {
	switch {
	case b != nil && b.price != nil:
		return b.price
	case c.pricer != nil:
		return c.pricer
	default:
		return OverlapCost
	}
}

// limit is the ε the query ran under: the single limit, or the
// worst-case total of a per-object spec.
func (b *budget) limit(objects []string) divergence.Limit {
	if b.spec != nil {
		return b.spec.Total(objects)
	}
	return b.eps
}

// counters are one query's inconsistency counters: a single counter for
// the whole query, or one per object under a spec.
type counters struct {
	one   *divergence.Counter
	byObj map[string]*divergence.Counter
}

func (b *budget) counters(objects []string) counters {
	if b.spec == nil {
		return counters{one: divergence.NewCounter(b.eps)}
	}
	byObj := make(map[string]*divergence.Counter, len(objects))
	for _, obj := range objects {
		byObj[obj] = divergence.NewCounter(b.spec.For(obj))
	}
	return counters{byObj: byObj}
}

func (c counters) of(obj string) *divergence.Counter {
	if c.one != nil {
		return c.one
	}
	return c.byObj[obj]
}

// total is the inconsistency imported across every counter.
func (c counters) total() int {
	if c.one != nil {
		return c.one.Count()
	}
	n := 0
	for _, ctr := range c.byObj {
		n += ctr.Count()
	}
	return n
}

// snapshotRead answers one object from the multi-version store at ts,
// falling back to the single-version store for objects with no version
// chain yet (pre-refactor recovery state, or coherency baselines that do
// not dual-write versions).
func snapshotRead(s *replica.Site, obj string, ts clock.Timestamp) op.Value {
	if v, ok := s.MV.ReadAt(obj, ts); ok {
		return v.Val
	}
	return s.Store.Get(obj)
}

// latestRead answers one object from the latest local state.  The
// single-version store wins when it has ever seen the object; otherwise
// the multi-version chain head serves methods whose state lives only
// there (the paper's multi-version RITU).
func latestRead(s *replica.Site, obj string) op.Value {
	if s.Store.Has(obj) {
		return s.Store.Get(obj)
	}
	if v, _, ok := s.MV.ReadLatest(obj); ok {
		return v.Val
	}
	return op.Value{}
}
