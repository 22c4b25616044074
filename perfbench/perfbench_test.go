package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestScheduleIsDeterministic(t *testing.T) {
	for _, w := range workloads {
		a := schedule(w, 7, w.rate, 2*time.Second)
		b := schedule(w, 7, w.rate, 2*time.Second)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: same seed gave different op streams", w.name)
		}
		if c := schedule(w, 8, w.rate, 2*time.Second); reflect.DeepEqual(a, c) {
			t.Fatalf("%s: seeds 7 and 8 gave the same op stream", w.name)
		}
	}
}

func TestScheduleMeanRate(t *testing.T) {
	const rate, secs = 1000.0, 20
	for _, w := range workloads {
		reqs := schedule(w, 3, rate, secs*time.Second)
		got := float64(len(reqs)) / secs
		if math.Abs(got-rate)/rate > 0.03 {
			t.Errorf("%s: mean arrival rate %.1f/s, want %.0f/s within 3%%", w.name, got, rate)
		}
		for i := 1; i < len(reqs); i++ {
			if reqs[i].due < reqs[i-1].due {
				t.Fatalf("%s: arrivals out of order at %d", w.name, i)
			}
		}
	}
}

func TestScheduleMix(t *testing.T) {
	w, _ := findWorkload("read-mix")
	reqs := schedule(w, 5, 1000, 10*time.Second)
	reads := 0
	levels := map[string]int{}
	for _, r := range reqs {
		if r.kind == opRead {
			reads++
			levels[r.level.String()]++
		} else if r.sess < 0 {
			t.Fatal("read-mix write outside the session pool")
		}
	}
	if frac := float64(reads) / float64(len(reqs)); math.Abs(frac-0.9) > 0.02 {
		t.Errorf("read share %.3f, want 0.9", frac)
	}
	for _, l := range readLevels {
		if n := levels[l.String()]; math.Abs(float64(n)-float64(reads)/4) > 1 {
			t.Errorf("level %v got %d of %d reads, want an even split", l, n, reads)
		}
	}
}

func TestPercentileCarriesSampleCount(t *testing.T) {
	d := &dist{}
	for i := 1; i <= 200; i++ {
		d.add(float64(i))
	}
	rep := &report{}
	rep.pct("x_p99_ms", "ms", d, 0.99)
	rep.pct("x_p50_ms", "ms", d, 0.5)
	rep.add("count", "count", 3, -1)
	if m, _ := rep.get("x_p99_ms"); m.Value != 198 || m.N != 200 {
		t.Fatalf("p99 = %v (n=%d), want 198 (n=200)", m.Value, m.N)
	}
	if m, _ := rep.get("x_p50_ms"); m.Value != 100 {
		t.Fatalf("p50 = %v, want 100", m.Value)
	}
	lines := rep.lines()
	if !strings.HasSuffix(lines[0], "ms (n=200)") || strings.Contains(lines[2], "n=") {
		t.Fatalf("lines = %q", lines)
	}
	if (&dist{}).quantile(0.99) != 0 {
		t.Fatal("empty dist must report 0")
	}
}

func TestOracleCatchesLostAndDuplicateWrites(t *testing.T) {
	model := map[string]int64{"a": 3, "b": 1}
	exact := func(site int, key string) (int64, error) { return model[key], nil }
	if v := checkFinal([]int{1, 2, 3}, model, exact); v.total() != 0 {
		t.Fatalf("clean run flagged: %v", v)
	}
	lost := func(site int, key string) (int64, error) {
		if site == 2 && key == "a" {
			return 2, nil
		}
		return model[key], nil
	}
	if v := checkFinal([]int{1, 2, 3}, model, lost); v["lost-write"] != 1 || v.total() != 1 {
		t.Fatalf("lost write: verdict %v", v)
	}
	twice := func(site int, key string) (int64, error) { return model[key] + 1, nil }
	if v := checkFinal([]int{1}, model, twice); v["duplicate-write"] != 2 {
		t.Fatalf("duplicate writes: verdict %v", v)
	}
}

func TestOracleCatchesSessionViolations(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	ok := []sessEvent{
		{sess: 1, key: "k", write: true, start: at(0), end: at(1)},
		{sess: 1, key: "k", start: at(2), end: at(3), value: 1},
		{sess: 1, key: "k", start: at(4), end: at(5), value: 4},
		// Overlaps the previous read, so it need not see its value.
		{sess: 1, key: "k", start: at(4), end: at(6), value: 1},
		// Another session's low read is not this session's business.
		{sess: 2, key: "k", start: at(7), end: at(8), value: 0},
	}
	if v := checkSessions(ok); v.total() != 0 {
		t.Fatalf("clean history flagged: %v", v)
	}
	backwards := append(ok, sessEvent{sess: 1, key: "k", start: at(9), end: at(10), value: 2})
	if v := checkSessions(backwards); v["monotonic-read"] != 1 || v.total() != 1 {
		t.Fatalf("non-monotonic read: verdict %v", v)
	}
	missed := append(ok,
		sessEvent{sess: 2, key: "k", write: true, start: at(9), end: at(10)},
		sessEvent{sess: 2, key: "k", start: at(11), end: at(12), value: 0})
	if v := checkSessions(missed); v["read-your-writes"] != 1 || v.total() != 1 {
		t.Fatalf("missed own write: verdict %v", v)
	}
}

func TestLadderStopsAtFirstFailingStep(t *testing.T) {
	var probed []float64
	probe := func(rate float64) ladderStep {
		probed = append(probed, rate)
		return ladderStep{rate: rate, achieved: rate - 1, ok: rate < 300}
	}
	steps := climb(100, 1.5, func() bool { return true }, probe)
	want := []float64{150, 225, 337.5}
	if !reflect.DeepEqual(probed, want) {
		t.Fatalf("probed %v, want %v", probed, want)
	}
	if len(steps) != 3 || steps[2].ok {
		t.Fatalf("steps %+v", steps)
	}
	base := ladderStep{rate: 100, achieved: 99, ok: true}
	if got := maxRateAtSLO(base, steps); got != 224 {
		t.Fatalf("max rate %v, want 224", got)
	}
	if got := maxRateAtSLO(ladderStep{}, nil); got != 0 {
		t.Fatalf("failed base: max rate %v, want 0", got)
	}
	budget := 2
	steps = climb(100, 1.5, func() bool { budget--; return budget >= 0 }, probe)
	if len(steps) != 2 {
		t.Fatalf("budget of two steps ran %d", len(steps))
	}
}

func TestSLOCountsInvisibleWritesAsMisses(t *testing.T) {
	o := newOutcome()
	for i := 0; i < 100; i++ {
		o.commit.add(1)
		o.visible.add(5)
	}
	o.attempted = 100
	if ok, why := meetsSLO(o); !ok {
		t.Fatalf("healthy phase failed: %s", why)
	}
	o.unvisible = 2
	if ok, _ := meetsSLO(o); ok {
		t.Fatal("2% never visible must miss the visibility p99")
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	r := newRecorder()
	at := func(us int) time.Time { return r.epoch.Add(time.Duration(us) * time.Microsecond) }
	root := r.id()
	r.add(span{Name: "engine.update", Parent: root, key: "site1"}, at(10), at(90))
	r.add(span{ID: root, Name: "bench.op", Req: "op0"}, at(0), at(100))
	r.add(span{Name: "core.seq_call", key: "site1"}, at(20), at(50))
	r.add(span{Name: "core.seq_call", key: "site2"}, at(20), at(50)) // no caller at site 2
	r.link("core.seq_call", "engine.update")
	self := r.finish()
	want := map[string]time.Duration{
		"bench":  20 * time.Microsecond,
		"engine": 50 * time.Microsecond,
		"core":   60 * time.Microsecond,
	}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self = %v, want %v", self, want)
	}
	for _, s := range r.named("core.seq_call") {
		if (s.key == "site1") != (s.Req == "op0") {
			t.Fatalf("request id not inherited correctly: %+v", s)
		}
	}
	if got := unionLen([][2]int64{{0, 10}, {5, 15}, {20, 25}}); got != 20 {
		t.Fatalf("unionLen = %d, want 20", got)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the binary in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return out
	}
	var ws []string
	for _, w := range workloads {
		if !w.ungated {
			ws = append(ws, w.name)
		}
	}
	if got := names(spec.Workloads); !reflect.DeepEqual(got, ws) {
		t.Errorf("workloads %v, binary has %v", got, ws)
	}
	if got := names(spec.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("end_to_end %v, binary reports %v", got, endToEnd)
	}
	if got := names(spec.PerLayer); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("per_layer %v, binary reports %v", got, perLayer)
	}
}

// TestWorkloadsRunClean drives every workload briefly, untraced and
// traced, and expects the oracle to find nothing and every metric to
// be reported.
func TestWorkloadsRunClean(t *testing.T) {
	if testing.Short() {
		t.Skip("drives real clusters")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/traced=%v", w.name, traced), func(t *testing.T) {
				w.rate = 200
				b := &bench{w: w, seed: 1, span: 2 * time.Second, dir: t.TempDir(), verdict: verdict{}}
				rep := &report{}
				want := endToEnd
				var err error
				if traced {
					want = perLayer
					err = b.traced(rep, "test", t.TempDir()+"/spans.jsonl")
				} else {
					err = b.untraced(rep)
				}
				if err != nil {
					t.Fatal(err)
				}
				if b.verdict.total() != 0 || b.failed != 0 || b.attempted == 0 {
					t.Fatalf("verdict %v, %d of %d failed", b.verdict, b.failed, b.attempted)
				}
				if miss := rep.missing(want); len(miss) > 0 {
					t.Fatalf("missing metrics %v", miss)
				}
			})
		}
	}
}
