package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"esr/internal/clock"
	"esr/internal/core"
	"esr/internal/network"
	"esr/internal/trace"
)

// span is one timed call into a layer.  The traced run keeps spans in
// memory and writes them out when it ends.
type span struct {
	ID     int64  `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
	Parent int64  `json:"parent"` // 0 for a root span
	Req    string `json:"req"`    // request id; children inherit their parent's
	Msgs   int    `json:"msgs,omitempty"`
	Bytes  int    `json:"bytes,omitempty"`
	key    string // what a span calls its possible parents, for linking
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// recorder collects spans.  A nil recorder records nothing, so the
// untraced run pays one nil check per call site.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// id reserves a span id, so a parent's id is known before it ends.
func (r *recorder) id() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next
}

func (r *recorder) add(s span, start, end time.Time) int64 {
	if r == nil {
		return 0
	}
	s.Start = start.Sub(r.epoch).Nanoseconds()
	s.End = end.Sub(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.ID == 0 {
		r.next++
		s.ID = r.next
	}
	r.spans = append(r.spans, s)
	return s.ID
}

// reset drops the spans recorded so far (the warm-up's).
func (r *recorder) reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = nil
}

// named returns the recorded spans with the given name.
func (r *recorder) named(name string) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// link gives each child span without a parent the latest-starting span
// named parent with the same key whose interval contains it.  The
// transport decorator cannot see which request it serves, so its spans
// are tied to their callers here, by time and site.
func (r *recorder) link(child, parent string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	byKey := map[string][]int{}
	for i, s := range r.spans {
		if s.Name == parent {
			byKey[s.key] = append(byKey[s.key], i)
		}
	}
	for _, idx := range byKey {
		sort.Slice(idx, func(a, b int) bool { return r.spans[idx[a]].Start < r.spans[idx[b]].Start })
	}
	for i := range r.spans {
		c := &r.spans[i]
		if c.Name != child || c.Parent != 0 {
			continue
		}
		cand := byKey[c.key]
		j := sort.Search(len(cand), func(k int) bool { return r.spans[cand[k]].Start > c.Start }) - 1
		for ; j >= 0; j-- {
			if p := r.spans[cand[j]]; p.End >= c.End {
				c.Parent = p.ID
				break
			}
		}
	}
}

// finish fills inherited request ids and returns each layer's self
// time: a span's duration minus the part of it its children cover.
func (r *recorder) finish() map[string]time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	byID := make(map[int64]int, len(r.spans))
	kids := map[int64][]int{}
	for i, s := range r.spans {
		byID[s.ID] = i
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	var req func(i int) string
	req = func(i int) string {
		s := &r.spans[i]
		if s.Req == "" && s.Parent != 0 {
			if p, ok := byID[s.Parent]; ok {
				s.Req = req(p)
			}
		}
		return s.Req
	}
	self := map[string]time.Duration{}
	for i := range r.spans {
		req(i)
		s := r.spans[i]
		var cover [][2]int64
		for _, k := range kids[s.ID] {
			c := r.spans[k]
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi > lo {
				cover = append(cover, [2]int64{lo, hi})
			}
		}
		self[s.layer()] += s.dur() - time.Duration(unionLen(cover))
	}
	return self
}

// unionLen is the total length covered by a set of intervals.
func unionLen(iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, end int64
	for i, x := range iv {
		if i == 0 || x[0] > end {
			total += x[1] - x[0]
			end = x[1]
		} else if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// write stores the spans as JSON lines after one header line.
func (r *recorder) write(path, header string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, header)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedNet decorates a transport: it times sequencer calls, frame
// sends and the accept handlers the chassis registers for replica
// sites.  It is passed in through sim.Options.Transport and changes no
// behaviour.
type tracedNet struct {
	network.Transport
	rec   *recorder
	sites int // sites 1..sites are replicas; other handlers are not wrapped
}

var _ network.TracedTransport = (*tracedNet)(nil)

func linkKey(from, to clock.SiteID) string { return fmt.Sprintf("%v>%v", from, to) }

func siteKey(s clock.SiteID) string { return fmt.Sprintf("site%d", int(s)) }

func payloadBytes(ps [][]byte) int {
	n := 0
	for _, p := range ps {
		n += len(p)
	}
	return n
}

func (t *tracedNet) sent(from, to clock.SiteID, msgs, bytes int, start time.Time) {
	t.rec.add(span{Name: "network.send", key: linkKey(from, to), Msgs: msgs, Bytes: bytes}, start, time.Now())
}

func (t *tracedNet) Send(from, to clock.SiteID, payload []byte) error {
	start := time.Now()
	err := t.Transport.Send(from, to, payload)
	t.sent(from, to, 1, len(payload), start)
	return err
}

func (t *tracedNet) SendTraced(from, to clock.SiteID, payload []byte, tc network.TraceContext) error {
	start := time.Now()
	err := network.SendCtx(t.Transport, from, to, payload, tc)
	t.sent(from, to, 1, len(payload), start)
	return err
}

func (t *tracedNet) SendBatch(from, to clock.SiteID, payloads [][]byte) error {
	start := time.Now()
	err := t.Transport.SendBatch(from, to, payloads)
	t.sent(from, to, len(payloads), payloadBytes(payloads), start)
	return err
}

func (t *tracedNet) SendBatchTraced(from, to clock.SiteID, payloads [][]byte, ids []uint64, tc network.TraceContext) error {
	start := time.Now()
	err := network.SendBatchCtx(t.Transport, from, to, payloads, ids, tc)
	t.sent(from, to, len(payloads), payloadBytes(payloads), start)
	return err
}

func (t *tracedNet) SetTrace(r *trace.Ring) { network.SetTrace(t.Transport, r) }

func (t *tracedNet) Call(from, to clock.SiteID, payload []byte) ([]byte, error) {
	start := time.Now()
	resp, err := t.Transport.Call(from, to, payload)
	name := "network.call"
	if to == core.SequencerSiteFor(0) {
		name = "core.seq_call"
	}
	t.rec.add(span{Name: name, key: siteKey(from)}, start, time.Now())
	return resp, err
}

func (t *tracedNet) replica(site clock.SiteID) bool { return site >= 1 && int(site) <= t.sites }

func (t *tracedNet) Register(site clock.SiteID, h network.Handler) {
	if t.replica(site) {
		inner := h
		h = func(from clock.SiteID, payload []byte) ([]byte, error) {
			start := time.Now()
			resp, err := inner(from, payload)
			t.rec.add(span{Name: "replica.accept", key: linkKey(from, site), Msgs: 1}, start, time.Now())
			return resp, err
		}
	}
	t.Transport.Register(site, h)
}

func (t *tracedNet) RegisterBatch(site clock.SiteID, h network.BatchHandler) {
	if t.replica(site) {
		inner := h
		h = func(from clock.SiteID, payloads [][]byte) error {
			start := time.Now()
			err := inner(from, payloads)
			t.rec.add(span{Name: "replica.accept", key: linkKey(from, site), Msgs: len(payloads)}, start, time.Now())
			return err
		}
	}
	t.Transport.RegisterBatch(site, h)
}
