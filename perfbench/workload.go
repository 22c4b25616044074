package main

import (
	"fmt"
	"math/rand"
	"time"

	"esr/internal/consistency"
	"esr/internal/sim"
)

// workload is one traffic mix.  Every knob not named here stays at the
// program's default.
type workload struct {
	name     string
	method   sim.EngineKind
	sites    int
	tcp      bool    // one core.Cluster per site over network.TCP on 127.0.0.1
	durable  bool    // JournalDir set: journal-backed queues and WALs, fsync on
	keys     uint64  // keyspace size
	zipfS    float64 // zipf exponent of the key popularity
	readFrac float64 // share of operations that are reads
	rate     float64 // fixed rate in ops/s, about half the knee
	// ungated keeps the workload out of BENCHMARK.json: the program as
	// shipped fails it on some seeds (NOTES.md, seed-state finding 1),
	// and a gated workload must be one on which no operation fails.  It
	// still runs, unchanged, by name.
	ungated bool
}

var workloads = []workload{
	{name: "write-durable", method: sim.ORDUPSeq, sites: 3, durable: true,
		keys: 1_000_000, zipfS: 1.1, rate: 100},
	{name: "write-hot-commute", method: sim.COMMU, sites: 3,
		keys: 1_000, zipfS: 2.0, rate: 1000},
	{name: "read-mix", method: sim.ORDUPSeq, sites: 3,
		keys: 100_000, zipfS: 1.1, readFrac: 0.9, rate: 1000, ungated: true},
	{name: "write-tcp", method: sim.ORDUPSeq, sites: 2, tcp: true,
		keys: 1_000_000, zipfS: 1.1, rate: 1000},
}

// Simulated links: uniform one-way delay.
const (
	minLink = time.Millisecond
	maxLink = 5 * time.Millisecond
)

// sessionPool is the number of client sessions read-mix writes through.
const sessionPool = 16

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

type opKind uint8

const (
	opWrite opKind = iota
	opRead
)

// request is one scheduled client operation.  Every write is a
// single-object Inc of 1, so the final value of an object is the
// number of acknowledged writes to it.
type request struct {
	due   time.Duration // offset from the start of the phase
	kind  opKind
	key   string
	site  int               // origin of a write, serving site of a read
	level consistency.Level // reads only
	sess  int               // session index, or -1
}

var readLevels = []consistency.Level{
	consistency.Strong, consistency.Bounded, consistency.Session, consistency.Eventual,
}

// schedule draws the open-loop op stream of one phase: Poisson arrivals
// at rate ops/s for d, zipf keys, origins and read sites round-robin,
// read levels spread evenly.  The same seed gives the same stream.
func schedule(w workload, seed int64, rate float64, d time.Duration) []request {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, w.zipfS, 1, w.keys-1)
	var out []request
	writes, reads := 0, 0
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= d {
			return out
		}
		r := request{due: due, key: fmt.Sprintf("k%d", zipf.Uint64()), sess: -1}
		if rng.Float64() < w.readFrac {
			r.kind = opRead
			r.site = reads%w.sites + 1
			r.level = readLevels[reads%len(readLevels)]
			reads++
			if r.level == consistency.Session {
				r.sess = rng.Intn(sessionPool)
			}
		} else {
			r.kind = opWrite
			r.site = writes%w.sites + 1
			writes++
			if w.readFrac > 0 {
				r.sess = rng.Intn(sessionPool)
			}
		}
		out = append(out, r)
	}
}
