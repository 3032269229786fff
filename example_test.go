package dsisim_test

import (
	"fmt"

	"dsisim"
)

// Run a built-in workload under the base protocol and under DSI, and
// compare coherence traffic. Simulations are deterministic, so the example
// output is exact.
func ExampleRun() {
	sc, err := dsisim.Run(dsisim.Config{
		Workload:   "prodcons",
		Protocol:   dsisim.SC,
		Processors: 8,
		Scale:      dsisim.ScaleTest,
	})
	if err != nil {
		panic(err)
	}
	v, err := dsisim.Run(dsisim.Config{
		Workload:   "prodcons",
		Protocol:   dsisim.V,
		Processors: 8,
		Scale:      dsisim.ScaleTest,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("DSI eliminated invalidation messages:",
		v.Messages.Invalidation() < sc.Messages.Invalidation())
	fmt.Println("DSI was at least as fast:", v.ExecTime <= sc.ExecTime)
	// Output:
	// DSI eliminated invalidation messages: true
	// DSI was at least as fast: true
}

// A CoherenceSink records one structured event per protocol action — every
// message, state transition, self-invalidation — and derives per-block
// lifetime metrics. Attaching one never changes simulated timing; see
// docs/OBSERVABILITY.md for the event schema.
func ExampleNewCoherenceSink() {
	sink := dsisim.NewCoherenceSink()
	res, err := dsisim.Run(dsisim.Config{
		Workload:   "em3d",
		Scale:      dsisim.ScaleTest,
		Protocol:   dsisim.V,
		Processors: 8,
		Sink:       sink,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("cycles unchanged by sink:", res.ExecTime == 7496)
	fmt.Println("coherence events recorded:", sink.Len())
	fmt.Println("coherence transactions:", res.Blocks.Transactions)
	fmt.Println("self-invalidations:", res.Blocks.SelfInvals)
	// Output:
	// cycles unchanged by sink: true
	// coherence events recorded: 3300
	// coherence transactions: 75
	// self-invalidations: 46
}

// Custom programs implement the Program interface; kernels issue simulated
// memory operations through the Proc handle.
func ExampleRunProgram() {
	res, err := dsisim.RunProgram(dsisim.Config{
		Protocol:   dsisim.WDSI,
		Processors: 4,
	}, &counterProgram{iters: 5})
	if err != nil {
		panic(err)
	}
	fmt.Println("barriers:", res.Barriers)
	// Output:
	// barriers: 1
}

type counterProgram struct {
	iters int
	lock  dsisim.Region
	ctr   dsisim.Region
}

func (c *counterProgram) Name() string        { return "counter" }
func (c *counterProgram) WarmupBarriers() int { return 0 }

func (c *counterProgram) Setup(m *dsisim.Machine) {
	c.lock = m.Layout().AllocInterleaved("lock", dsisim.BlockSize)
	c.ctr = m.Layout().AllocInterleaved("ctr", dsisim.BlockSize)
}

func (c *counterProgram) Kernel(p *dsisim.Proc) {
	for i := 0; i < c.iters; i++ {
		p.Lock(c.lock.Addr(0))
		v := p.Read(c.ctr.Addr(0))
		p.WriteWord(c.ctr.Addr(0), v.Word+1)
		p.Unlock(c.lock.Addr(0))
	}
	p.Barrier()
	if p.ID() == 0 && p.Read(c.ctr.Addr(0)).Word != uint64(p.N()*c.iters) {
		p.Failf("lost update")
	}
}
