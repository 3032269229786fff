// Test fixture for the determinism analyzer. The test configures the
// analyzer to treat package a as simulation code.
package a

import (
	_ "math/rand" // want `simulation package imports math/rand; use internal/rng`
	"time"
)

func wallClock() time.Duration {
	t0 := time.Now()      // want `time\.Now in simulation package`
	return time.Since(t0) // want `time\.Since in simulation package`
}

func timeTypesOK() time.Duration { // ok: time's types and constants are pure
	var d time.Duration = 3 * time.Millisecond
	return d
}

func spawn(ch chan int) {
	go wallClock() // want `goroutine spawned in simulation package`
	_ = ch
}

// There is no goroutine waiver: a leftover waiver comment exempts nothing.
func spawnUnderRetiredWaiver(work func()) {
	//dsi:parmerge coordinator handshakes order all cross-goroutine state
	go work() // want `goroutine spawned in simulation package`
}

func mapIter(m map[int]int) int {
	s := 0
	for k := range m { // want `map iteration in simulation package`
		s += k
	}
	return s
}

func mapIterWaived(m map[int]int) int {
	s := 0
	//dsi:anyorder summing values is order-independent
	for _, v := range m {
		s += v
	}
	for _, v := range m { //dsi:anyorder trailing form also accepted
		s += v
	}
	return s
}

func sliceIter(xs []int) int { // ok: slice iteration is ordered
	s := 0
	for _, v := range xs {
		s += v
	}
	return s
}
