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
	"sync"
	"time"

	"fedms"
	"fedms/internal/node"
)

// spec is the one description of the federation. The networked run
// derives every node's configuration from it (fedms.Resolve, then
// node.PSConfigFor / node.ClientConfigFor); the reference run hands the
// same value to the in-process engine.
var spec = fedms.Config{
	Clients:      8,
	Servers:      5,
	ByzantineIDs: []int{2}, // server 2 runs the backward attack
	Attack:       fedms.BackwardAttack{},
	Rounds:       8,
	LocalSteps:   3,
	TrimBeta:     0.2,
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
	psNodes := make([]*node.PS, cfg.Servers)
	addrs := make([]string, cfg.Servers)
	for i := range psNodes {
		pc := must(node.PSConfigFor(cfg, i))
		pc.ListenAddr, pc.Timeout = "127.0.0.1:0", 10*time.Second
		ps := must(node.NewPS(pc))
		psNodes[i] = ps
		addrs[i] = ps.Addr()
		role := "benign"
		if pc.Attack != nil {
			role = "BYZANTINE " + pc.Attack.Name()
		}
		fmt.Printf("PS %d (%s) listening on %s\n", i, role, ps.Addr())
	}

	learners := must(fedms.BuildLearners(spec))
	var wg sync.WaitGroup
	for _, ps := range psNodes {
		wg.Add(1)
		go func(ps *node.PS) {
			defer wg.Done()
			if err := ps.Serve(); err != nil {
				log.Fatalf("PS failed: %v", err)
			}
		}(ps)
	}
	for id, l := range learners {
		cc := must(node.ClientConfigFor(cfg, id, l))
		cc.Servers, cc.Timeout = addrs, 10*time.Second
		wg.Add(1)
		go func(cc node.ClientConfig) {
			defer wg.Done()
			if _, err := node.RunClient(cc); err != nil {
				log.Fatalf("client %d failed: %v", cc.ID, err)
			}
		}(cc)
	}
	wg.Wait()
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
