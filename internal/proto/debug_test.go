package proto

// Temporary debugging helper for chaos failures. Kept small; safe to leave
// in the tree but skipped by default.

import (
	"fmt"
	"os"
	"testing"

	"dsisim/internal/core"
	"dsisim/internal/event"
	"dsisim/internal/mem"
	"dsisim/internal/netsim"
	"dsisim/internal/rng"
)

func TestDebugChaosTrace(t *testing.T) {
	if os.Getenv("DSI_DEBUG") == "" {
		t.Skip("set DSI_DEBUG=1 to trace")
	}
	cfg := Config{Consistency: SC, Policy: core.Policy{
		Identifier: core.Versions,
		FIFO:       4,
	}}
	const watch = mem.Addr(0x100)
	for seed := uint64(1); seed <= 5; seed++ {
		func() {
			defer func() {
				if r := recover(); r != nil {
					fmt.Printf("seed %d panicked: %v\n", seed, r)
				}
			}()
			r := newRig(t, rigOpts{nodes: 6, cfg: cfg,
				cacheBytes: 2 * mem.BlockSize, assoc: 1, tolerate: true})
			// Wrap handlers to log traffic for the watched block.
			for i := 0; i < 6; i++ {
				i := i
				cc, dc := r.ccs[i], r.dcs[i]
				r.net.SetHandler(i, func(m *netsim.Message) {
					if mem.BlockOf(m.Addr) == watch {
						fmt.Printf("t=%-8d %v\n", r.q.Now(), m)
					}
					switch m.Kind {
					case netsim.Inv, netsim.Recall, netsim.DataS, netsim.DataX,
						netsim.AckX, netsim.FinalAck:
						cc.Handle(m)
					default:
						dc.Handle(m)
					}
				})
			}
			runChaosBody(r, seed)
			r.run()
			if len(r.fails) > 0 {
				fmt.Printf("seed %d fails: %v\n", seed, r.fails)
			}
		}()
	}
}

// runChaosBody duplicates runChaos's op generation without the audit.
func runChaosBody(r *rig, seed uint64) {
	const (
		nodes  = 6
		blocks = 8
		ops    = 400
	)
	rnd := rng.New(seed)
	var issue func(node int, remaining int, seq uint64)
	issue = func(node int, remaining int, seq uint64) {
		if remaining == 0 {
			return
		}
		a := mem.Addr(1+rnd.Intn(blocks)) * mem.BlockSize
		next := func(*Result) {
			r.q.After(event.Time(rnd.Intn(50)), func() {
				issue(node, remaining-1, seq+1)
			})
		}
		switch rnd.Intn(10) {
		case 0, 1, 2, 3:
			r.ccs[node].Read(a, next)
		case 4, 5, 6:
			r.ccs[node].Write(a, Store{Writer: node, Seq: seq}, next)
		case 7:
			cc := r.ccs[node]
			cc.DrainWB(func() {
				cc.Swap(a, uint64(node+1), Store{Writer: node, Seq: seq}, next)
			})
		default:
			cc := r.ccs[node]
			cc.DrainWB(func() { cc.SyncFlush(next) })
		}
	}
	for n := 0; n < nodes; n++ {
		n := n
		r.at(event.Time(n), func() { issue(n, ops, 1) })
	}
}
