// ARD: the Atmospheric River Detection workload of paper Table III.
//
// Run with:
//
//	go run ./examples/ard
//
// ARD reads a block whose width and height are parameterized at a
// parameterized time plane of a 3D mesh. The paper's file is 217 GB;
// this model keeps the same geometry scaled down (the fuzzer and
// carver are size-independent, §V-D4). The example compares Kondo
// against brute force at the same test budget — brute force gets stuck
// sweeping the temporal dimension of the lexicographically first
// block shape, while Kondo's schedule spreads across Θ.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/baseline"
	"repro/kondo"
)

func main() {
	p, err := kondo.ProgramByName("ARD")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("application: %s — %s\n", p.Name(), p.Description())
	fmt.Printf("array: %s (%d cells), |Θ| = %d\n\n",
		p.Space(), p.Space().Size(), p.Params().Valuations())

	const budget = 4000

	cfg := kondo.DefaultConfig()
	cfg.Fuzz.Seed = 1
	cfg.Fuzz.MaxEvals = budget
	cfg.Fuzz.MaxIter = 2 * budget
	res, err := kondo.Debloat(context.Background(), p, cfg)
	if err != nil {
		log.Fatal(err)
	}
	truth, err := kondo.GroundTruth(p)
	if err != nil {
		log.Fatal(err)
	}
	pr := kondo.Evaluate(truth, res.Approx)
	fmt.Printf("Kondo  (%4d tests): precision %.3f, recall %.3f, debloat %.2f%%\n",
		res.Fuzz.Evaluations, pr.Precision, pr.Recall,
		100*kondo.BloatFraction(p.Space(), res.Approx))

	bf, err := baseline.BruteForce(context.Background(), p, budget)
	if err != nil {
		log.Fatal(err)
	}
	bfPR := kondo.Evaluate(truth, bf.Indices)
	fmt.Printf("BF     (%4d tests): precision %.3f, recall %.3f\n",
		bf.Evaluations, bfPR.Precision, bfPR.Recall)

	fmt.Println("\npaper Table III shape: Kondo 1 & 1 with ~97.2% debloat; BF recall 0.24")
}
