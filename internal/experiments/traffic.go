package experiments

import (
	"fmt"
	"strings"

	"dsisim/internal/faultinj"
	"dsisim/internal/machine"
	"dsisim/internal/stats"
	"dsisim/internal/workload"
)

// The traffic drivers evaluate the production-shaped generators
// (docs/WORKLOADS.md): the zipfian hot-writer workload, the
// producer-consumer ring, the lock convoy, and open-loop arrival. They
// answer the question the paper's scientific kernels cannot: how DSI
// behaves under the skewed, serving-stack sharing patterns where hybrid
// update/invalidate protocols are known to flip winners.

// TrafficProtocols are the columns of the traffic grid: base protocols plus
// the two main DSI arms.
var TrafficProtocols = []Label{SC, W, V, WDSI}

// TrafficGrid runs the traffic-shaped generators against TrafficProtocols.
func TrafficGrid(o Options) (*Matrix, error) {
	return RunMatrix(workload.TrafficNames(), TrafficProtocols, o)
}

// ZipfSkewSweep runs the zipf generator under SC and W+DSI across
// hot-writer fractions, reporting W+DSI's improvement at each point — the
// regime sweep where protocol choice flips as write sharing grows.
func ZipfSkewSweep(fracs []float64, o Options) (stats.Table, error) {
	o = o.defaults()
	t := stats.Table{
		Title:  "zipf: W+DSI improvement vs SC across hot-writer fraction",
		Header: []string{"hot-writer frac", "writers/32", "SC cycles", "W+DSI cycles", "improvement"},
	}
	for _, f := range fracs {
		p := workload.ZipfScaled(o.Scale)
		p.HotWriterFrac = f
		writers := int(f*float64(o.Processors) + 0.5)
		if writers < 1 {
			writers = 1
		}
		var res [2]machine.Result
		for i, l := range []Label{SC, WDSI} {
			// Not keyed in o.Cache: the cache names a workload by registry
			// name, and this zipf instance has its own parameters.
			res[i] = machines.Run(o.machineConfig(l.Config()), workload.NewZipf(p))
			if res[i].Failed() {
				return t, fmt.Errorf("zipf frac %.3f under %s: %s", f, l, res[i].Errors[0])
			}
		}
		imp := 1 - float64(res[1].ExecTime)/float64(res[0].ExecTime)
		t.AddRow(fmt.Sprintf("%.3f", f), fmt.Sprintf("%d/%d", writers, o.Processors),
			fmt.Sprint(res[0].ExecTime), fmt.Sprint(res[1].ExecTime), stats.Pct(imp))
	}
	return t, nil
}

// DefaultSkewFracs are the hot-writer fractions of the committed skew sweep.
var DefaultSkewFracs = []float64{0.03125, 0.0625, 0.125, 0.25, 0.5}

// Traffic renders the traffic-workloads artifact: the clean grid, the same
// grid under a lossy fault plan with its recovery counters, and the
// hot-writer skew sweep.
func Traffic(o Options) (string, error) {
	o = o.defaults()
	var sb strings.Builder
	sb.WriteString("Traffic-shaped workloads (docs/WORKLOADS.md)\n")
	sb.WriteString(fmt.Sprintf("(%d processors, %v cache, %d-cycle network)\n\n", o.Processors, o.Class, o.Latency))

	m, err := TrafficGrid(o)
	if err != nil {
		return "", err
	}
	sb.WriteString(m.Table("execution time normalized to SC", SC).Render())
	sb.WriteByte('\n')
	sb.WriteString("Total messages per protocol:\n")
	mt := stats.Table{Header: append([]string{"benchmark"}, labelStrings(TrafficProtocols)...)}
	for _, w := range m.Workloads {
		row := []string{w}
		for _, l := range m.Labels {
			row = append(row, fmt.Sprint(m.Get(w, l).Messages.Total()))
		}
		mt.AddRow(row...)
	}
	sb.WriteString(mt.Render())
	sb.WriteByte('\n')

	// The same grid under a lossy interconnect: every cell must still pass
	// its kernel asserts and audit, and the Recovery counters show what the
	// hardened protocol paid to get there.
	fo := o
	fo.Faults = &FaultConfigLossy
	fm, err := TrafficGrid(fo)
	if err != nil {
		return "", err
	}
	sb.WriteString(fm.RecoveryTable("fault recovery under drop=2% dup=1% delay=5% (seed 0xfa17)").Render())
	sb.WriteByte('\n')

	sw, err := ZipfSkewSweep(DefaultSkewFracs, o)
	if err != nil {
		return "", err
	}
	sb.WriteString(sw.Render())
	return sb.String(), nil
}

// FaultConfigLossy is the lossy plan used by the traffic artifact's faulted
// grid (mirrors the soak farm's "lossy" template, fixed seed for
// replayability).
var FaultConfigLossy = faultinj.Config{Seed: 0xfa17, Drop: 0.02, Dup: 0.01, Delay: 0.05}

// labelStrings converts labels for table headers.
func labelStrings(ls []Label) []string {
	out := make([]string, len(ls))
	for i, l := range ls {
		out[i] = string(l)
	}
	return out
}
