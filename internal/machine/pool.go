package machine

import "sync"

// poolCap bounds how many idle machines a Pool retains. Experiment grids
// cycle through a handful of shapes (usually one); anything beyond that is
// better garbage-collected than held.
const poolCap = 4

// Pool recycles machines across runs. An experiment grid or benchmark loop
// that simulates the same machine shape hundreds of times pays the
// structural allocation cost (event queue, network, block tables, cache
// arrays) once: Get returns a Reset machine when a compatible one is idle,
// and Put parks a finished machine for the next Get. Run does both around
// one simulation, and is how every driver runs a pooled machine.
//
// Reuse never changes results — Reset restores a just-assembled state, and
// the kernel determinism goldens run every protocol through pooled machines
// (dsisim.Run uses a package pool). The zero Pool is ready to use and safe
// for concurrent Get/Put; each machine is owned exclusively by its caller
// between the two.
type Pool struct {
	mu   sync.Mutex
	free []*Machine
}

// Get returns a machine for cfg: a pooled one when its structure matches
// (Reset under the new configuration), a freshly assembled one otherwise.
func (p *Pool) Get(cfg Config) *Machine {
	cfg = cfg.Defaults()
	p.mu.Lock()
	for i := len(p.free) - 1; i >= 0; i-- {
		m := p.free[i]
		if m.Reusable(cfg) {
			p.free = append(p.free[:i], p.free[i+1:]...)
			p.mu.Unlock()
			m.Reset(cfg)
			return m
		}
	}
	p.mu.Unlock()
	return New(cfg)
}

// Put parks m for reuse. Machines whose run failed are parked too — Reset
// restores a clean state regardless (abandoned in-flight records are simply
// dropped to the garbage collector). When the pool is full the oldest
// parked machine is evicted.
func (p *Pool) Put(m *Machine) {
	if m == nil {
		return
	}
	p.mu.Lock()
	if len(p.free) >= poolCap {
		p.free = append(p.free[1:], m)
	} else {
		p.free = append(p.free, m)
	}
	p.mu.Unlock()
}

// Run simulates prog on a machine of shape cfg taken from the pool, and
// parks the machine again once the run is over.
func (p *Pool) Run(cfg Config, prog Program) Result {
	m := p.Get(cfg)
	res := m.Run(prog)
	p.Put(m)
	return res
}
