package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// tailBeyond is how many samples must lie above a reported tail percentile.
const tailBeyond = 10

// ladder lists the percentiles a tail may be reported at, highest first, in
// hundredths of a percent so that ranks are computed exactly. p50 is not on
// it: a tail that cannot be told from the median is not reported.
var ladder = []int{9999, 9990, 9900, 9500, 9000, 7500}

// rank returns the 1-based nearest-rank position of percentile p (hundredths
// of a percent) among n samples.
func rank(p, n int) int {
	r := (p*n + 9999) / 10000
	if r < 1 {
		r = 1
	}
	return r
}

// tailPercentile returns the highest ladder percentile that leaves at least
// tailBeyond samples above it when n samples are taken. A workload fixes its
// tail percentile from its minimum sample count, so the percentile does not
// change between runs that measure different numbers of passes.
func tailPercentile(n int) (int, error) {
	for _, p := range ladder {
		if n-rank(p, n) >= tailBeyond {
			return p, nil
		}
	}
	return 0, fmt.Errorf("%d samples leave fewer than %d beyond p75: too few to report a tail", n, tailBeyond)
}

// quantile estimates percentile p (hundredths of a percent) of samples with
// the Harrell-Davis estimator: a mean of all order statistics weighted by a
// beta distribution centred on the percentile's rank. A nearest-rank value
// is one sample, and on a 40-request paper-grid pass that sample moves with
// the host's noise on whichever cell lands on the rank; the weighted mean
// averages the neighbouring ranks too.
func quantile(samples []float64, p int) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := float64(len(s))
	q := float64(p) / 10000
	a, b := q*(n+1), (1-q)*(n+1)
	var est, prev float64
	for i, v := range s {
		cur := regIncBeta(a, b, float64(i+1)/n)
		est += (cur - prev) * v
		prev = cur
	}
	return est
}

// tail returns percentile p of samples and how many samples lie beyond its
// rank, or an error when fewer than tailBeyond do.
func tail(samples []float64, p int) (value float64, beyond int, err error) {
	if len(samples) == 0 {
		return 0, 0, fmt.Errorf("no samples")
	}
	beyond = len(samples) - rank(p, len(samples))
	if beyond < tailBeyond {
		return 0, beyond, fmt.Errorf("p%s of %d samples has %d beyond it, want at least %d",
			pctName(p), len(samples), beyond, tailBeyond)
	}
	return quantile(samples, p), beyond, nil
}

// median estimates the median of samples, 0 when there are none.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	return quantile(samples, 5000)
}

// regIncBeta is the regularized incomplete beta function I_x(a, b), by the
// continued fraction of Numerical Recipes §6.4.
func regIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

func betaCF(a, b, x float64) float64 {
	const eps, tiny = 1e-14, 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= 1000; m++ {
		aa := m * (b - m) * x / ((a - 1 + 2*m) * (a + 2*m))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		h *= d * c
		aa = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 1 + 2*m))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		h *= d * c
		if math.Abs(d*c-1) < eps {
			break
		}
	}
	return h
}

// pctName renders a percentile in hundredths of a percent: 9990 -> "99.9".
func pctName(p int) string {
	return strconv.FormatFloat(float64(p)/100, 'f', -1, 64)
}

// host describes the machine a run measured on.
type host struct {
	cpu        string
	nproc      int
	gomaxprocs int
	goVersion  string
}

func readHost() host {
	h := host{cpu: "unknown", nproc: runtime.NumCPU(), gomaxprocs: runtime.GOMAXPROCS(0), goVersion: runtime.Version()}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return h
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			h.cpu = strings.TrimSpace(v)
			break
		}
	}
	return h
}

// cpuTicks is the aggregate CPU line of /proc/stat: all ticks, and the ones
// the hypervisor stole.
type cpuTicks struct {
	total, steal uint64
}

// readTicks reads the aggregate tick counters. ok is false where /proc/stat
// is missing or unreadable; the steal share then reads 0.
func readTicks() (t cpuTicks, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return t, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal [guest guest_nice]:
	// guest time is already counted in user and nice.
	if len(f) < 9 || f[0] != "cpu" {
		return t, false
	}
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return cpuTicks{}, false
		}
		t.total += v
		if i == 8 {
			t.steal = v
		}
	}
	return t, true
}

// stealFrac is the hypervisor's share of the CPU ticks between a and b.
func stealFrac(a, b cpuTicks) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// peakRSSMiB is the process's peak resident set size so far.
func peakRSSMiB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports kilobytes
}
