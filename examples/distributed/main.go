// Distributed deployment: the full Fed-MS protocol over real TCP
// sockets on localhost.
//
// Five parameter-server nodes listen on loopback ports (one Byzantine,
// running the Backward staleness attack); eight client nodes connect to
// all of them and run the sparse-upload / trimmed-mean protocol. The
// wire format is the length-prefixed, checksummed binary protocol of
// internal/transport.
//
// Because every random choice is derived from the shared seed, this
// networked run computes exactly the same models as the in-process
// engine — the program verifies that at the end.
//
//	go run ./examples/distributed
package main

import (
	"fmt"
	"log"
	"time"

	"fedms"
	"fedms/internal/node"
)

// spec is the one description of the federation. The networked run
// derives every node's configuration from it (fedms.Resolve, then
// node.NewLocal); the reference run hands the same value to the
// in-process engine.
var spec = fedms.Config{
	Clients:      8,
	Servers:      5,
	ByzantineIDs: []int{2}, // server 2 runs the backward attack
	Attack:       fedms.BackwardAttack{},
	Rounds:       8,
	LocalSteps:   3,
	FilterRule:   "trim:0.2",
	LearningRate: 0.2,
	Dataset:      fedms.DatasetSpec{Samples: 3000, Alpha: 10, Noise: 2.0},
	Seed:         7,
	EvalEvery:    -1,
}

func must[T any](v T, err error) T {
	if err != nil {
		log.Fatal(err)
	}
	return v
}

func main() {
	// ---- Networked run ----
	cfg := must(fedms.Resolve(spec))
	learners := must(fedms.BuildLearners(spec))
	roles := make([]string, cfg.Servers)
	fed := must(node.NewLocal(cfg, learners, func(pc *node.PSConfig) {
		pc.Timeout = 10 * time.Second
		roles[pc.ID] = "benign"
		if pc.Attack != nil {
			roles[pc.ID] = "BYZANTINE " + pc.Attack.Name()
		}
	}, func(cc *node.ClientConfig) { cc.Timeout = 10 * time.Second }))
	for i, addr := range fed.Addrs {
		fmt.Printf("PS %d (%s) listening on %s\n", i, roles[i], addr)
	}
	if _, _, err := fed.Run(); err != nil {
		log.Fatal(err)
	}
	loss, acc := learners[0].Evaluate()
	fmt.Printf("networked run done: client0 test_loss=%.4f test_acc=%.4f\n", loss, acc)

	// ---- In-process reference run from the same spec ----
	eng := must(fedms.BuildEngine(spec))
	eng.Run()
	ref := eng.Learners()

	// The two runs must agree bit for bit.
	for k := range learners {
		a, b := learners[k].Params(), ref[k].Params()
		for i := range a {
			if a[i] != b[i] {
				log.Fatalf("client %d diverged from the in-process engine at param %d", k, i)
			}
		}
	}
	fmt.Println("verified: networked run matches the in-process engine bit-for-bit")
}
