// Sessions: read-your-writes and monotonic reads over ESR.
//
// Run with:
//
//	go run ./examples/sessions
//
// ESR bounds how stale any query may be, but an individual client often
// needs two more promises: "I see my own writes" and "I never read
// backwards in time".  A Session provides both over the asynchronous
// substrate, waiting (bounded) at the queried replica only as long as
// that replica lags this session — other clients' reads are unaffected.
package main

import (
	"fmt"
	"log"
	"time"

	"esr"
)

func main() {
	cluster, err := esr.Open(esr.Config{
		Replicas:   3,
		Method:     esr.COMMU,
		Seed:       8,
		MinLatency: 3 * time.Millisecond,
		MaxLatency: 9 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	session, err := cluster.NewSession()
	if err != nil {
		log.Fatal(err)
	}

	// The session posts at site 1 and immediately reads at site 3 —
	// links take 3–9 ms, so a bare eventual read would usually miss the
	// post.
	if _, err := session.Update(1, esr.Add("timeline", "hello world")); err != nil {
		log.Fatal(err)
	}
	bare, _ := cluster.Read(3, []string{"timeline"}, esr.ReadOptions{Level: esr.LevelEventual})
	res, err := session.Read(3, "timeline")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bare read at site 3 right after posting: %v (may miss it)\n",
		bare.Value("timeline"))
	fmt.Printf("session read at site 3: %v (read-your-writes held)\n",
		res.Value("timeline"))

	// Monotonic reads: having seen the post at site 3, a later session
	// read at lagging site 2 waits for site 2 to catch up instead of
	// showing an older timeline.
	res2, err := session.Read(2, "timeline")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("session read at site 2: %v (monotonic reads held)\n",
		res2.Value("timeline"))

	if err := cluster.Quiesce(10 * time.Second); err != nil {
		log.Fatal(err)
	}
	fmt.Println("cluster quiescent; all replicas identical")
}
