package workload_test

import (
	"fmt"

	"dsisim/internal/faultinj"
	"dsisim/internal/proto"
	"dsisim/internal/workload"
)

// A litmus program is derived from a single seed, runs through the
// coherence audit and the final-state cross-check against the reference
// interleaving, and shrinks by greedy op-deletion when it fails. The soak
// farm (internal/soak, `dsibench -fuzz N`) drives exactly these three
// steps over its litmus cells.
func ExampleGenLitmus() {
	// Every program is derived from a single seed, so any failure names
	// the exact spec that produced it.
	spec := workload.GenLitmus(42)
	fmt.Printf("seed 42: %d procs, %d blocks, %d rounds, %d ops\n",
		spec.Procs, spec.Blocks, spec.Rounds, len(spec.Ops))

	// Minimization deletes ops while the failure predicate keeps firing.
	// A synthetic predicate — "the program still holds a lock increment" —
	// shows the shape of the result: the smallest spec that still fails.
	min := workload.MinimizeLitmus(spec, func(c *workload.LitmusSpec) bool {
		for _, op := range c.Ops {
			if op.Kind == workload.LitmusLockInc {
				return true
			}
		}
		return false
	})
	fmt.Printf("minimized: %d op (%s)\n", len(min.Ops), min.Ops[0].Kind)

	// A minimized spec replays like any generated one — `dsisim -replay`
	// runs it the same way from a persisted soak spec — here under the
	// litmus campaign's protocols, fault-free and under its two fault plans.
	plans := []*faultinj.Config{
		nil,
		{Seed: 7, Drop: 0.02, Dup: 0.01, Delay: 0.05},
		{Seed: 7, Delay: 0.2, Jitter: 64},
	}
	clean := true
	for _, name := range []string{"SC", "W", "S", "V", "W+DSI"} {
		pr, err := proto.LabelOf(name)
		if err != nil {
			panic(err)
		}
		for _, fc := range plans {
			if _, _, err := workload.RunLitmus(min, pr, fc, workload.LitmusRun{}); err != nil {
				clean = false
				fmt.Println(err)
			}
		}
	}
	fmt.Println("minimized spec replays clean:", clean)
	// Output:
	// seed 42: 3 procs, 5 blocks, 1 rounds, 10 ops
	// minimized: 1 op (lockinc)
	// minimized spec replays clean: true
}
