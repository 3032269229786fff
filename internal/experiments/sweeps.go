package experiments

import (
	"fmt"
	"strings"

	"dsisim/internal/event"
	"dsisim/internal/machine"
	"dsisim/internal/stats"
)

// The sweep drivers quantify the trends the paper argues qualitatively:
// DSI's benefit grows with network latency ("as processor cycle times
// continue to decrease relative to network latencies") and with cache size
// ("systems using main memory as a cache ... may benefit significantly").

// LatencySweep runs one workload under SC and V across network latencies
// and reports V's improvement at each point.
func LatencySweep(name string, latencies []event.Time, o Options) (stats.Table, error) {
	t := stats.Table{
		Title:  fmt.Sprintf("%s: DSI (V) improvement vs SC across network latency", name),
		Header: []string{"latency", "SC cycles", "V cycles", "improvement"},
	}
	for _, lat := range latencies {
		oo := o.defaults()
		oo.Latency = lat
		sc, err := RunOne(name, SC, oo)
		if err != nil {
			return t, err
		}
		v, err := RunOne(name, V, oo)
		if err != nil {
			return t, err
		}
		imp := 1 - float64(v.ExecTime)/float64(sc.ExecTime)
		t.AddRow(fmt.Sprint(lat), fmt.Sprint(sc.ExecTime), fmt.Sprint(v.ExecTime), stats.Pct(imp))
	}
	return t, nil
}

// CacheSweep runs one workload under SC and V across cache sizes.
func CacheSweep(name string, sizes []int, o Options) (stats.Table, error) {
	t := stats.Table{
		Title:  fmt.Sprintf("%s: DSI (V) improvement vs SC across cache size", name),
		Header: []string{"cache bytes", "SC cycles", "V cycles", "improvement"},
	}
	for _, size := range sizes {
		res, err := runPair(name, o, size, 0)
		if err != nil {
			return t, err
		}
		imp := 1 - float64(res[1].ExecTime)/float64(res[0].ExecTime)
		t.AddRow(fmt.Sprint(size), fmt.Sprint(res[0].ExecTime), fmt.Sprint(res[1].ExecTime), stats.Pct(imp))
	}
	return t, nil
}

// ProcSweep runs one workload under SC and V across machine sizes.
func ProcSweep(name string, procs []int, o Options) (stats.Table, error) {
	t := stats.Table{
		Title:  fmt.Sprintf("%s: DSI (V) improvement vs SC across processors", name),
		Header: []string{"processors", "SC cycles", "V cycles", "improvement"},
	}
	for _, n := range procs {
		res, err := runPair(name, o, 0, n)
		if err != nil {
			return t, err
		}
		imp := 1 - float64(res[1].ExecTime)/float64(res[0].ExecTime)
		t.AddRow(fmt.Sprint(n), fmt.Sprint(res[0].ExecTime), fmt.Sprint(res[1].ExecTime), stats.Pct(imp))
	}
	return t, nil
}

// runPair runs (SC, V) with optional cache-size / processor overrides.
func runPair(name string, o Options, cacheBytes, procs int) ([2]machine.Result, error) {
	var out [2]machine.Result
	o = o.defaults()
	if procs > 0 {
		o.Processors = procs
	}
	for i, l := range []Label{SC, V} {
		cfg := o.machineConfig(l.Config())
		if cacheBytes > 0 {
			cfg.CacheBytes = cacheBytes
		}
		res, err := runCell(name, cfg, o)
		if err != nil {
			return out, err
		}
		out[i] = res
	}
	return out, nil
}

// Sweeps renders the standard sensitivity report: em3d and sparse across
// latency; tomcatv across cache size; sparse across machine size.
func Sweeps(o Options) (string, error) {
	// Sweep trends are about coherence overhead, so run them on the cache
	// class that holds the working sets (the paper's 2 MB analogue).
	o.Class = LargeCache
	var sb strings.Builder
	for _, name := range []string{"em3d", "sparse"} {
		t, err := LatencySweep(name, []event.Time{50, 100, 300, 1000}, o)
		if err != nil {
			return "", err
		}
		sb.WriteString(t.Render())
		sb.WriteByte('\n')
	}
	ct, err := CacheSweep("tomcatv", []int{16 * 1024, 32 * 1024, 128 * 1024, 512 * 1024}, o)
	if err != nil {
		return "", err
	}
	sb.WriteString(ct.Render())
	sb.WriteByte('\n')
	pt, err := ProcSweep("sparse", []int{8, 16, 32}, o)
	if err != nil {
		return "", err
	}
	sb.WriteString(pt.Render())
	return sb.String(), nil
}
