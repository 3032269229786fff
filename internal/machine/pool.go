package machine

import (
	"runtime"
	"slices"
	"sync"
)

// poolCap bounds how many idle machines the process retains, per
// GOMAXPROCS: one for each machine shape a driver cycles through, for each
// worker that may be running one. Soak's default space cycles 4 shapes (the
// 8-processor registry machine plus the 2-, 3- and 4-processor litmus
// machines), the paper grid 2 (its two cache classes) and popular-cached
// traffic 1; machines beyond that are better garbage-collected than held.
// The list cannot be a sync.Pool: that drops its entries at every garbage
// collection, and a soak sitting collects several times, so each
// collection would bring back the rebuilding the list exists to avoid.
const poolCap = 4

// idle holds the machines no run is using, for every driver in the
// process, kept like internal/cpu's idle coroutines: an experiment grid, a
// soak campaign or a benchmark loop that simulates the same machine shape
// hundreds of times pays the structural allocation cost (event queue,
// network, block tables, cache arrays) once. When the list is full the
// oldest machine is dropped.
//
// Reuse never changes results: Reset restores a just-assembled state, and
// the kernel determinism goldens run every protocol through this list. A
// machine belongs to the one run that took it until Run parks it again.
var idle struct {
	sync.Mutex
	machines []*Machine
}

// Run simulates prog on a machine of shape cfg and returns the result. The
// machine is a parked one of cfg's shape, Reset under cfg, or a freshly
// assembled one, and is parked again once the run is over, failed or not:
// Reset restores a clean state regardless. Run is safe for concurrent use,
// and every driver runs its simulations through it.
func Run(cfg Config, prog Program) Result {
	m := acquire(cfg)
	res := m.Run(prog)
	park(m)
	return res
}

// acquire takes the most recently parked machine of cfg's shape, Reset
// under cfg, or assembles one.
func acquire(cfg Config) *Machine {
	cfg = cfg.Defaults()
	idle.Lock()
	for i := len(idle.machines) - 1; i >= 0; i-- {
		m := idle.machines[i]
		if m.Reusable(cfg) {
			idle.machines = slices.Delete(idle.machines, i, i+1)
			idle.Unlock()
			m.Reset(cfg)
			return m
		}
	}
	idle.Unlock()
	return New(cfg)
}

// park returns m to the idle list, dropping the oldest parked machine when
// the list is full. It first detaches the finished run's sink, which the
// run's caller owns, and slices.Delete clears the slot it vacates, so the
// list keeps neither a dropped machine nor an old event recording
// reachable. acquire's Reset installs the next run's sink.
func park(m *Machine) {
	m.cfg.Sink, m.env.Sink = nil, nil
	m.net.SetObserver(nil)
	idle.Lock()
	if len(idle.machines) >= poolCap*runtime.GOMAXPROCS(0) {
		idle.machines = slices.Delete(idle.machines, 0, 1)
	}
	idle.machines = append(idle.machines, m)
	idle.Unlock()
}
