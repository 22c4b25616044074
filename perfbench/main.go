// Command perfbench is the repository's end-to-end benchmark: open-loop
// load on one of four workloads against the shipped replica-control
// program, with a correctness oracle.  An untraced run (-trace 0)
// reports the end-to-end metrics; a traced run (-trace 1) reports the
// per-layer metrics and writes its spans.  The last line of standard
// output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}.  See NOTES.md; run it through run.sh.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// endToEnd are the metrics an untraced run puts in its JSON line, in
// the order of BENCHMARK.json; perLayer are the traced run's.
//
// Only metrics whose run-to-run spread stays well inside their bound on
// a shared 2-vCPU machine are gated; the p99s and the rest of the
// end-to-end metrics are printed (see NOTES.md).
var endToEnd = []string{"commit_p50_ms", "visible_p50_ms", "op_p50_ms", "heap_mb", "setup_s"}

// The traced run also prints per-layer times that are 0 by
// construction on some workload (sequencer calls on write-hot-commute,
// read gates and snapshots on the write workloads); they stay out of
// the JSON line, which must hold no time that reads the same on every
// run.
var perLayer = []string{
	"core.seq_calls_per_update",
	"queue.fsyncs_per_update", "queue.out_backlog_max",
	"network.frames_per_update", "network.msgs_per_frame", "network.bytes_per_update", "network.send_p99_us",
	"replica.accept_p50_us", "replica.accept_p99_us", "replica.accepts_per_update",
	"replica.in_backlog_max", "replica.applied_per_update", "replica.held_per_applied", "replica.staleness_max_ms",
	"read.delayed_frac", "read.gate_timeouts",
	"replica.pending_leaks",
	"storage.gc_p99_ms", "storage.versions_collected", "storage.versions_live",
	"bench.gen_late_p99_ms", "bench.ops_attempted", "bench.trace_overhead_pct",
	"trace.self_us_per_op.bench", "trace.self_us_per_op.engine",
	"trace.self_us_per_op.network", "trace.self_us_per_op.replica", "trace.self_us_per_op.storage",
}

const (
	// setupRounds is how often a run builds the cluster to time set-up;
	// it reports the median.
	setupRounds = 101
	// ladderRatio is the step between ladder rates.
	ladderRatio = 1.5
	warmupKey   = "warmup"
)

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: write-durable, write-hot-commute, read-mix or write-tcp")
	seed := flag.Int64("seed", 1, "seed of the op stream and the simulated network")
	seconds := flag.Int("seconds", 20, "measured seconds")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer run, 0 the untraced end-to-end run")
	commit := flag.String("commit", "unknown", "source commit, for the environment stamp")
	workdir := flag.String("workdir", ".bench_build/run", "scratch directory for journals and spans")
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload <name>, -seconds >= 1 and -trace 0|1:", err)
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	env := fmt.Sprintf("env gomaxprocs=%d nproc=%d go=%s commit=%s seed=%d workload=%s rate=%g trace=%d seconds=%d slo=%s",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), *commit, *seed, w.name, w.rate, *traced, *seconds, sloText)
	fmt.Println(env)
	b := &bench{w: w, seed: *seed, span: time.Duration(*seconds) * time.Second,
		dir: filepath.Join(*workdir, fmt.Sprintf("%s-%d", w.name, os.Getpid())), verdict: verdict{}}
	defer os.RemoveAll(b.dir)
	rep := &report{}
	want := endToEnd
	if *traced == 1 {
		want = perLayer
		err = b.traced(rep, env, filepath.Join(*workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, *seed)))
	} else {
		err = b.untraced(rep)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, l := range rep.lines() {
		fmt.Println(l)
	}
	if miss := rep.missing(want); len(miss) > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: metrics not measured:", joinNames(miss))
		return 1
	}
	fmt.Printf("oracle %s\n", b.verdict)
	return printResult(b, rep, want)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printResult(b *bench, rep *report, want []string) int {
	ms := map[string]jsonMetric{}
	for _, name := range want {
		m, _ := rep.get(name)
		ms[name] = jsonMetric{Value: m.Value, Unit: m.Unit}
	}
	out, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{b.verdict.total() == 0, b.attempted, b.failed + b.verdict.total(), ms})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// bench is one run of one workload.
type bench struct {
	w       workload
	seed    int64
	span    time.Duration // the measured seconds
	dir     string
	systems int

	attempted, failed int // operations, over every phase the run counts
	verdict           verdict
	leaks             int // object replicas with unapplied-update counts left after quiescence
}

// open builds a cluster and issues one warm-up Inc; set-up ends when
// the cluster has accepted it.  It returns the time that took.
func (b *bench) open(seed int64, rec *recorder) (*system, time.Duration, error) {
	b.systems++
	start := time.Now()
	sys, err := openSystem(b.w, seed, filepath.Join(b.dir, fmt.Sprint(b.systems)), rec)
	if err != nil {
		return nil, 0, err
	}
	if _, _, err := sys.update(request{kind: opWrite, key: warmupKey, site: 1, sess: -1}); err != nil {
		sys.close()
		return nil, 0, fmt.Errorf("%s set-up: %w", b.w.name, err)
	}
	return sys, time.Since(start), nil
}

// settle drains a finished phase and runs the oracle on it.  It returns
// the time from the end of load until the cluster is quiescent and
// converged.
func (b *bench) settle(phase string, sys *system, o *outcome) time.Duration {
	b.attempted += o.attempted
	b.failed += o.failed
	v := verdict{}
	if err := sys.quiesce(drainTimeout); err != nil {
		v["not-quiescent"]++
	}
	if err := sys.converged(); err != nil {
		v["diverged"]++
	}
	conv := time.Since(o.loadEnd)
	model := map[string]int64{warmupKey: 1}
	for k, n := range o.model {
		model[k] += n
	}
	v.merge(checkFinal(sys.siteIDs(), model, sys.value))
	v.merge(checkSessions(o.sessLog))
	v["bounded-read-beyond-dt"] += o.staleReads
	for _, p := range o.pending {
		if !sys.visible(p.id, p.key, p.origin, p.need) {
			v["never-visible"]++
		}
	}
	leaks := sys.pendingLeaks(model)
	b.leaks += leaks
	fmt.Printf("phase %s: %d ops, %d failed %v, oracle %v, %d object replicas still count unapplied updates after quiescence\n",
		phase, o.attempted, o.failed, o.errs, v, leaks)
	b.verdict.merge(v)
	return conv
}

func achieved(o *outcome, d time.Duration) float64 {
	return float64(o.writesAcked+o.reads) / d.Seconds()
}

func heapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapInuse) / (1 << 20)
}

// untraced measures set-up, the fixed-rate phase and the rate ladder.
func (b *bench) untraced(rep *report) error {
	var sys *system
	var setups []float64
	for i := 0; i < setupRounds; i++ {
		if sys != nil {
			sys.close()
		}
		// A seed per round, so the median spans many link-delay draws.
		s, d, err := b.open(b.seed+int64(i), nil)
		if err != nil {
			return err
		}
		sys = s
		setups = append(setups, d.Seconds())
	}
	fixed := b.span / 2
	o := runPhase(sys, schedule(b.w, b.seed, b.w.rate, fixed), nil, drainTimeout)
	conv := b.settle("fixed", sys, o)
	heap := heapMB()
	sys.close()

	ok, why := meetsSLO(o)
	base := ladderStep{rate: b.w.rate, achieved: achieved(o, fixed), ok: ok, why: why}
	stepDur := max(time.Second, b.span/10)
	ladderStart := time.Now()
	k := int64(0)
	steps := []ladderStep{}
	if ok {
		steps = climb(b.w.rate, ladderRatio, func() bool { return time.Since(ladderStart) < b.span/2 }, func(rate float64) ladderStep {
			k++
			s, _, err := b.open(b.seed+k, nil)
			if err != nil {
				return ladderStep{rate: rate, why: err.Error()}
			}
			defer s.close()
			so := runPhase(s, schedule(b.w, b.seed+k, rate, stepDur), nil, sloVisibleP99Ms*time.Millisecond)
			step := ladderStep{rate: rate, achieved: achieved(so, stepDur)}
			step.ok, step.why = meetsSLO(so)
			if step.ok {
				b.settle(fmt.Sprintf("ladder-%.0f", rate), s, so)
			}
			return step
		})
	}
	for _, s := range append([]ladderStep{base}, steps...) {
		status := "pass"
		if !s.ok {
			status = "fail: " + s.why
		}
		fmt.Printf("ladder rate=%.0f/s achieved=%.1f/s %s\n", s.rate, s.achieved, status)
	}

	for _, m := range []struct {
		name string
		d    *dist
	}{{"commit", &o.commit}, {"visible", &o.visible}, {"op", &o.op}} {
		rep.pct(m.name+"_p50_ms", "ms", m.d, 0.5)
		rep.pct(m.name+"_p99_ms", "ms", m.d, 0.99)
	}
	if o.reads > 0 {
		rep.pct("read_p50_ms", "ms", &o.read, 0.5)
		rep.pct("read_p99_ms", "ms", &o.read, 0.99)
		rep.pct("read_strong_p99_ms", "ms", &o.readStrong, 0.99)
	}
	rep.add("max_rate_at_slo", "1/s", maxRateAtSLO(base, steps), -1)
	rep.add("converge_s", "s", conv.Seconds(), -1)
	rep.add("failed_frac", "ratio", float64(o.failed)/float64(max(o.attempted, 1)), -1)
	rep.add("heap_mb", "MB", heap, -1)
	rep.add("replica.pending_leaks", "count", float64(b.leaks), -1)
	rep.add("setup_s", "s", median(setups), len(setups))
	rep.add("gen_late_p99_ms", "ms", o.late.quantile(0.99), o.late.n())
	return nil
}

// traced runs the fixed-rate phase once untraced, as the reference for
// the tracing overhead, and once through the span recorder, and
// derives the per-layer metrics from the traced phase alone.
func (b *bench) traced(rep *report, env, spansPath string) error {
	reqs := schedule(b.w, b.seed, b.w.rate, b.span/2)
	sys, _, err := b.open(b.seed, nil)
	if err != nil {
		return err
	}
	ref := runPhase(sys, reqs, nil, drainTimeout)
	b.settle("reference", sys, ref)
	sys.close()
	refLeaks := b.leaks

	rec := newRecorder()
	sys, _, err = b.open(b.seed, rec)
	if err != nil {
		return err
	}
	rec.reset()
	o := runPhase(sys, reqs, rec, drainTimeout)
	b.settle("traced", sys, o)
	live := versionsLive(sys)
	sys.close()

	layerMetrics(rep, o, rec, live, b.leaks-refLeaks)
	refP50 := ref.commit.quantile(0.5)
	overhead := 0.0
	if refP50 > 0 {
		overhead = 100 * (o.commit.quantile(0.5) - refP50) / refP50
	}
	rep.add("bench.trace_overhead_pct", "%", overhead, -1)
	if err := rec.write(spansPath, env); err != nil {
		return err
	}
	fmt.Println("spans", spansPath)
	return nil
}

func versionsLive(sys *system) int {
	n := 0
	for _, id := range sys.siteIDs() {
		mv := sys.site(id).MV
		for _, obj := range mv.Objects() {
			n += len(mv.Versions(obj))
		}
	}
	return n
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives every per-layer metric from one traced phase.
func layerMetrics(rep *report, o *outcome, rec *recorder, live, leaks int) {
	rec.link("core.seq_call", "engine.update")
	rec.link("replica.accept", "network.send")
	upd := float64(o.writesAcked)
	durs := func(name string, unit time.Duration) (*dist, int, int) {
		d := &dist{}
		msgs, bytes := 0, 0
		for _, s := range rec.named(name) {
			d.add(float64(s.dur()) / float64(unit))
			msgs += s.Msgs
			bytes += s.Bytes
		}
		return d, msgs, bytes
	}
	seq, _, _ := durs("core.seq_call", time.Millisecond)
	rep.add("core.seq_calls_per_update", "1/update", ratio(float64(seq.n()), upd), -1)
	rep.pct("core.seq_call_p50_ms", "ms", seq, 0.5)
	rep.pct("core.seq_call_p99_ms", "ms", seq, 0.99)

	rep.add("queue.fsyncs_per_update", "1/update", ratio(float64(o.syncs), upd), -1)
	rep.add("queue.out_backlog_max", "msgs", float64(o.outBacklogMax), -1)

	send, msgs, bytes := durs("network.send", time.Microsecond)
	rep.add("network.frames_per_update", "1/update", ratio(float64(send.n()), upd), -1)
	rep.add("network.msgs_per_frame", "msgs/frame", ratio(float64(msgs), float64(send.n())), -1)
	rep.add("network.bytes_per_update", "B/update", ratio(float64(bytes), upd), -1)
	rep.pct("network.send_p99_us", "us", send, 0.99)

	acc, accMsgs, _ := durs("replica.accept", time.Microsecond)
	rep.pct("replica.accept_p50_us", "us", acc, 0.5)
	rep.pct("replica.accept_p99_us", "us", acc, 0.99)
	rep.add("replica.accepts_per_update", "1/update", ratio(float64(accMsgs), upd), -1)
	rep.add("replica.in_backlog_max", "msgs", float64(o.inBacklogMax), -1)
	rep.add("replica.applied_per_update", "1/update", ratio(float64(o.applied), upd), -1)
	rep.add("replica.held_per_applied", "ratio", ratio(float64(o.held), float64(o.applied)), -1)
	rep.add("replica.staleness_max_ms", "ms", ms(o.stalenessMax), -1)

	for _, l := range readLevels[:3] {
		rep.pct("read.gate_wait_p99_ms."+l.String(), "ms", o.gateWait[l], 0.99)
	}
	rep.pct("read.snapshot_p99_us", "us", &o.snapshot, 0.99)
	rep.add("read.delayed_frac", "ratio", ratio(float64(o.delayed), float64(o.reads)), -1)
	rep.add("read.gate_timeouts", "count", float64(o.gateTimeouts), -1)
	rep.add("replica.pending_leaks", "count", float64(leaks), -1)

	rep.pct("storage.gc_p99_ms", "ms", &o.gc, 0.99)
	rep.add("storage.versions_collected", "count", float64(o.gcCollected), -1)
	rep.add("storage.versions_live", "count", float64(live), -1)

	rep.pct("bench.gen_late_p99_ms", "ms", &o.late, 0.99)
	rep.add("bench.ops_attempted", "count", float64(o.attempted), -1)

	self := rec.finish()
	for _, l := range []string{"bench", "engine", "core", "network", "replica", "read", "storage"} {
		rep.add("trace.self_us_per_op."+l, "us/op", ratio(us(self[l]), float64(o.attempted)), -1)
	}
}
