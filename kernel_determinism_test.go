package dsisim

// Determinism guarantees of the event kernel. The simulator promises
// bit-identical results for identical configurations: the event queue's
// (time, seq) ordering is a total order, so neither the heap's internal
// shape nor host scheduling can leak into results. These tests pin that
// promise two ways: against golden values captured from the seed kernel
// (the container/heap implementation this kernel replaced), and by running
// the same configuration twice and comparing every observable field.

import (
	"testing"
)

// goldenRun is one (workload, protocol) cell's full observable outcome,
// captured from the pre-rewrite seed kernel. Any divergence means the
// rewritten queue or the pooled event paths changed simulation behavior —
// a correctness bug, not a tuning difference.
type goldenRun struct {
	workload  string
	protocol  Protocol
	execTime  int64
	totalTime int64
	brkTotal  int64
	msgs      int64
	inval     int64
	breakdown [10]int64 // compute, synch, read-inv, read-other, write-inv, write-other, synch-wb, read-wb, wb-full, dsi
}

var seedGolden = []goldenRun{
	{"em3d", SC, 7465, 7565, 60520, 306, 122, [10]int64{8104, 18579, 94, 24893, 7705, 1145, 0, 0, 0, 0}},
	{"em3d", V, 7496, 7596, 60768, 322, 92, [10]int64{8104, 20571, 94, 24889, 5829, 1143, 0, 0, 0, 138}},
	{"em3d", WDSI, 6950, 7050, 56400, 276, 92, [10]int64{8104, 22523, 94, 25064, 0, 0, 590, 0, 0, 25}},
	{"ocean", SC, 70402, 70654, 562406, 2864, 1402, [10]int64{14857, 231485, 4378, 159652, 138946, 13081, 0, 0, 0, 7}},
	{"ocean", V, 57657, 57909, 460446, 2534, 952, [10]int64{14885, 191869, 4130, 146114, 91495, 11209, 0, 0, 0, 744}},
	{"ocean", WDSI, 37322, 37507, 297766, 1429, 414, [10]int64{14922, 172718, 3672, 90526, 0, 0, 15668, 0, 0, 260}},
}

// trafficGolden pins the traffic-shaped generators (docs/WORKLOADS.md §3)
// the same way: one fault-free golden per generator under SC, V, and W+DSI,
// captured at ScaleTest on 8 processors. The generators draw their operation
// streams from internal/rng in Setup, so these values also pin the seeded
// construction path — a changed stream shows up here before it silently
// shifts every committed traffic table in EXPERIMENTS.md.
var trafficGolden = []goldenRun{
	{"zipf", SC, 14504, 15538, 117746, 538, 186, [10]int64{1801, 63959, 7143, 39083, 3257, 2501, 0, 0, 0, 2}},
	{"zipf", V, 14553, 15587, 118138, 568, 144, [10]int64{1801, 64531, 5628, 40644, 2811, 2501, 0, 0, 0, 222}},
	{"zipf", WDSI, 10589, 10958, 85647, 532, 144, [10]int64{1801, 36046, 5633, 40698, 0, 0, 1355, 0, 0, 114}},
	{"prodring", SC, 6868, 7435, 56223, 420, 196, [10]int64{375, 14404, 9006, 19440, 6686, 6312, 0, 0, 0, 0}},
	{"prodring", V, 7461, 8028, 60967, 532, 140, [10]int64{375, 15029, 3008, 28963, 6686, 6430, 0, 0, 0, 476}},
	{"prodring", WDSI, 7421, 7762, 60215, 504, 140, [10]int64{375, 14565, 3008, 28963, 0, 0, 12960, 0, 0, 344}},
	{"lockconvoy", SC, 142506, 142506, 1133734, 3174, 1582, [10]int64{1838, 1043621, 21815, 23927, 20214, 22276, 0, 0, 0, 43}},
	{"lockconvoy", V, 163298, 163298, 1300070, 3721, 1818, [10]int64{1919, 1196382, 25072, 27030, 23304, 25558, 0, 0, 0, 805}},
	{"lockconvoy", WDSI, 52182, 52182, 411142, 1045, 482, [10]int64{1428, 360315, 4528, 5123, 0, 0, 39277, 0, 0, 471}},
	{"openloop", SC, 11963, 12997, 56279, 348, 126, [10]int64{1038, 18519, 7950, 24418, 2315, 2031, 0, 0, 0, 8}},
	{"openloop", V, 11128, 12162, 54093, 344, 116, [10]int64{1038, 17140, 7308, 24418, 2108, 2031, 0, 0, 0, 50}},
	{"openloop", WDSI, 10631, 11000, 47749, 352, 116, [10]int64{1038, 13138, 6878, 24301, 0, 0, 2329, 0, 0, 65}},
}

// TestKernelGoldenAgainstSeed runs each golden configuration and requires
// bit-identical results to the seed kernel (and, for the traffic-shaped
// generators, to the values captured when they were added).
func TestKernelGoldenAgainstSeed(t *testing.T) {
	goldens := append(append([]goldenRun{}, seedGolden...), trafficGolden...)
	for _, g := range goldens {
		g := g
		t.Run(g.workload+"/"+string(g.protocol), func(t *testing.T) {
			t.Parallel()
			res, err := Run(Config{Workload: g.workload, Scale: ScaleTest, Protocol: g.protocol, Processors: 8})
			if err != nil {
				t.Fatal(err)
			}
			if int64(res.ExecTime) != g.execTime {
				t.Errorf("ExecTime = %d, golden is %d", res.ExecTime, g.execTime)
			}
			if int64(res.TotalTime) != g.totalTime {
				t.Errorf("TotalTime = %d, golden is %d", res.TotalTime, g.totalTime)
			}
			if res.Breakdown.Total() != g.brkTotal {
				t.Errorf("Breakdown.Total() = %d, golden is %d", res.Breakdown.Total(), g.brkTotal)
			}
			if res.Messages.Total() != g.msgs {
				t.Errorf("Messages.Total() = %d, golden is %d", res.Messages.Total(), g.msgs)
			}
			if res.Messages.Invalidation() != g.inval {
				t.Errorf("Messages.Invalidation() = %d, golden is %d", res.Messages.Invalidation(), g.inval)
			}
			if res.Breakdown.Cycles != g.breakdown {
				t.Errorf("Breakdown.Cycles = %v, golden is %v", res.Breakdown.Cycles, g.breakdown)
			}
		})
	}
}

// TestKernelRunTwiceIdentical runs one configuration twice on fresh machines
// and requires every observable to match, including per-processor breakdowns
// and kernel counters — the pooled free lists must not make a second run see
// different state than a first.
func TestKernelRunTwiceIdentical(t *testing.T) {
	cfg := Config{Workload: "ocean", Scale: ScaleTest, Protocol: V, Processors: 8}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.ExecTime != b.ExecTime || a.TotalTime != b.TotalTime {
		t.Errorf("times differ: run1 (%d, %d) vs run2 (%d, %d)",
			a.ExecTime, a.TotalTime, b.ExecTime, b.TotalTime)
	}
	if a.Breakdown != b.Breakdown {
		t.Errorf("breakdowns differ:\nrun1 %v\nrun2 %v", a.Breakdown.Cycles, b.Breakdown.Cycles)
	}
	for i := range a.PerProc {
		if a.PerProc[i] != b.PerProc[i] {
			t.Errorf("proc %d breakdowns differ:\nrun1 %v\nrun2 %v",
				i, a.PerProc[i].Cycles, b.PerProc[i].Cycles)
		}
	}
	if a.Messages != b.Messages {
		t.Errorf("message counts differ:\nrun1 %+v\nrun2 %+v", a.Messages, b.Messages)
	}
	if a.Kernel != b.Kernel {
		t.Errorf("kernel counters differ:\nrun1 %+v\nrun2 %+v", a.Kernel, b.Kernel)
	}
	if a.Kernel.Events == 0 || a.Kernel.PeakQueue == 0 {
		t.Errorf("kernel counters not populated: %+v", a.Kernel)
	}
}
