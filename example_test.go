package esr_test

import (
	"fmt"
	"time"

	"esr"
)

// Example shows the minimal ESR session: an asynchronous update, a
// bounded-staleness query, and convergence at quiescence.
func Example() {
	cluster, err := esr.Open(esr.Config{Replicas: 3, Method: esr.COMMU, Seed: 1})
	if err != nil {
		panic(err)
	}
	defer cluster.Close()

	cluster.Update(1, esr.Inc("balance", 100))
	cluster.Quiesce(10 * time.Second)

	res, _ := cluster.Query(2, []string{"balance"}, esr.Epsilon(0))
	fmt.Println(res.Value("balance"), "imported", res.Inconsistency)
	// Output: 100 imported 0
}

// ExampleCluster_Query demonstrates the ε trade: under a partition the
// freshest update is unreachable, and the query reports exactly how much
// inconsistency its answer may carry.
func ExampleCluster_Query() {
	cluster, err := esr.Open(esr.Config{Replicas: 2, Method: esr.COMMU, Seed: 2})
	if err != nil {
		panic(err)
	}
	defer cluster.Close()

	cluster.Update(1, esr.Inc("counter", 10))
	cluster.Quiesce(10 * time.Second)

	// Strand an update in transit toward site 2.
	cluster.Partition([]int{1}, []int{2})
	cluster.Update(1, esr.Inc("counter", 5))
	time.Sleep(5 * time.Millisecond)

	res, _ := cluster.Query(2, []string{"counter"}, esr.Epsilon(1))
	fmt.Printf("read %v, at most %d update(s) behind\n", res.Value("counter"), res.Inconsistency)

	cluster.Heal()
	cluster.Quiesce(10 * time.Second)
	after, _ := cluster.Query(2, []string{"counter"}, esr.Epsilon(0))
	fmt.Println("after heal:", after.Value("counter"))
	// Output:
	// read 10, at most 1 update(s) behind
	// after heal: 15
}

// ExampleCluster_Begin shows the COMPE saga interface: a tentative
// update aborts and its compensation undoes it at every replica.
func ExampleCluster_Begin() {
	cluster, err := esr.Open(esr.Config{Replicas: 2, Method: esr.COMPE, Seed: 3})
	if err != nil {
		panic(err)
	}
	defer cluster.Close()

	id, _ := cluster.Begin(1, esr.Inc("seats", -1))
	cluster.Abort(id)
	cluster.Quiesce(10 * time.Second)

	fmt.Println("seats after aborted reservation:", cluster.Value(2, "seats"))
	// Output: seats after aborted reservation: 0
}
