package policy

import (
	"math/bits"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/hw"
	"repro/internal/nnet"
	"repro/internal/par"
	"repro/internal/workload"
)

// searchCell is one Table 4 or Table 5 capacity search: the answer and
// the number of probes (each a full core.Run) the reference bisection
// spends on it.
type searchCell struct {
	table, fw, net  string
	answer, refRuns int
}

// tableCells lists every cell `snpaper tables` searches: Table 4 is MaxDepth at
// batch 16 up to n3 = 2600, Table 5 is MaxBatch up to the per-network
// search limit.
var tableCells = []searchCell{
	{"table4", "Caffe", "", 13, 8},
	{"table4", "MXNet", "", 145, 16},
	{"table4", "Torch", "", 34, 12},
	{"table4", "TensorFlow", "", 278, 18},
	{"table4", "SuperNeurons", "", 1316, 22},
	{"table5", "Caffe", "AlexNet", 846, 20},
	{"table5", "MXNet", "AlexNet", 1836, 22},
	{"table5", "Torch", "AlexNet", 1045, 22},
	{"table5", "TensorFlow", "AlexNet", 2263, 24},
	{"table5", "SuperNeurons", "AlexNet", 2263, 24},
	{"table5", "Caffe", "InceptionV4", 27, 10},
	{"table5", "MXNet", "InceptionV4", 124, 14},
	{"table5", "Torch", "InceptionV4", 31, 10},
	{"table5", "TensorFlow", "InceptionV4", 305, 18},
	{"table5", "SuperNeurons", "InceptionV4", 687, 20},
	{"table5", "Caffe", "ResNet101", 35, 12},
	{"table5", "MXNet", "ResNet101", 92, 14},
	{"table5", "Torch", "ResNet101", 43, 12},
	{"table5", "TensorFlow", "ResNet101", 164, 16},
	{"table5", "SuperNeurons", "ResNet101", 995, 20},
	{"table5", "Caffe", "ResNet152", 24, 10},
	{"table5", "MXNet", "ResNet152", 62, 12},
	{"table5", "Torch", "ResNet152", 29, 10},
	{"table5", "TensorFlow", "ResNet152", 111, 14},
	{"table5", "SuperNeurons", "ResNet152", 985, 20},
	{"table5", "Caffe", "ResNet50", 55, 12},
	{"table5", "MXNet", "ResNet50", 148, 16},
	{"table5", "Torch", "ResNet50", 66, 14},
	{"table5", "TensorFlow", "ResNet50", 266, 18},
	{"table5", "SuperNeurons", "ResNet50", 1008, 20},
	{"table5", "Caffe", "VGG16", 63, 12},
	{"table5", "MXNet", "VGG16", 173, 16},
	{"table5", "Torch", "VGG16", 92, 14},
	{"table5", "TensorFlow", "VGG16", 249, 16},
	{"table5", "SuperNeurons", "VGG16", 291, 18},
}

// refLargestFitting is the capacity search before predictions:
// exponential probing brackets the boundary and bisection narrows the
// bracket. It is the reference the predict-then-verify search must
// agree with.
func refLargestFitting(fits func(int) (bool, error), hi int) (int, error) {
	if ok, err := fits(1); err != nil || !ok {
		return 0, err
	}
	lo := 1
	for probe := 2; probe <= hi; probe *= 2 {
		ok, err := fits(probe)
		if err != nil {
			return 0, err
		}
		if !ok {
			hi = probe - 1
			break
		}
		lo = probe
	}
	for lo < hi {
		mid := (lo + hi + 1) / 2
		ok, err := fits(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo, nil
}

// cellProbe returns the probe behind a table cell's search and its
// upper bound, memoized so the reference and the new search can share
// full runs.
func cellProbe(c searchCell) (func(int) (demand, bool, error), int) {
	f, _ := ByName(c.fw)
	build, hi := func(n3 int) *nnet.Net { return nnet.ResNetTable4(16, n3) }, 2600
	if c.table == "table5" {
		build, hi = nnet.ByName(c.net), workload.Table5SearchLimit[c.net]
	}
	type outcome struct {
		d   demand
		ok  bool
		err error
	}
	memo := map[int]outcome{}
	probe := prober(f, hw.TeslaK40c, build)
	return func(n int) (demand, bool, error) {
		o, seen := memo[n]
		if !seen {
			o.d, o.ok, o.err = probe(n)
			memo[n] = o
		}
		return o.d, o.ok, o.err
	}, hi
}

// TestTableSearchProbes runs every Table 4 and Table 5 capacity search
// with the reference bisection and with the predict-then-verify search,
// and reports the answer and the full runs each spends. The answers
// must agree with each other and with the tables. No Table 4 cell may
// need more runs than the reference, Table 4 must need at most 50 in
// all (the reference needs 76), and Table 5 no more than the
// reference's total (480).
func TestTableSearchProbes(t *testing.T) {
	type got struct{ ref, answer, refRuns, runs int }
	res := par.Map(tableCells, 0, func(c searchCell) got {
		probe, hi := cellProbe(c)
		var g got
		var err error
		g.ref, err = refLargestFitting(func(n int) (bool, error) {
			g.refRuns++
			_, ok, err := probe(n)
			return ok, err
		}, hi)
		if err != nil {
			t.Errorf("%s %s %s: reference: %v", c.table, c.fw, c.net, err)
		}
		g.answer, err = largestFitting(func(n int) (demand, bool, error) { g.runs++; return probe(n) }, hi, hw.TeslaK40c.UsableBytes)
		if err != nil {
			t.Errorf("%s %s %s: %v", c.table, c.fw, c.net, err)
		}
		return g
	})
	total := map[string][2]int{}
	for i, c := range tableCells {
		r := res[i]
		t.Logf("%s %-12s %-11s answer %4d (reference %4d)  runs %2d (reference %2d)", c.table, c.fw, c.net, r.answer, r.ref, r.runs, r.refRuns)
		if r.answer != c.answer || r.ref != c.answer {
			t.Errorf("%s %s %s: answer %d, reference %d, want %d", c.table, c.fw, c.net, r.answer, r.ref, c.answer)
		}
		if r.refRuns != c.refRuns {
			t.Errorf("%s %s %s: reference took %d runs, want %d", c.table, c.fw, c.net, r.refRuns, c.refRuns)
		}
		if c.table == "table4" && r.runs > r.refRuns {
			t.Errorf("%s %s: %d runs, more than the reference's %d", c.table, c.fw, r.runs, r.refRuns)
		}
		// SuperNeurons' cell is Table 4's critical path: its deep
		// probes (n3 = 1316-1320, a ResNet of depth about 4080 and
		// about 13,600 layers) cost 15-45 ms of core.Run each on a
		// 2-vCPU x86 host, a fitting one up to about twice a failing
		// one. This test builds each probe's network afresh, 3-8 ms
		// more; MaxDepth re-stages one network for about 0.25 ms.
		if c.table == "table4" && c.fw == "SuperNeurons" && r.runs > 10 {
			t.Errorf("%s %s: %d runs, want at most 10", c.table, c.fw, r.runs)
		}
		tt := total[c.table]
		total[c.table] = [2]int{tt[0] + r.runs, tt[1] + r.refRuns}
	}
	for _, table := range []string{"table4", "table5"} {
		tt := total[table]
		t.Logf("%s: %d runs (reference %d)", table, tt[0], tt[1])
		if tt[0] > tt[1] {
			t.Errorf("%s: %d runs in total, more than the reference's %d", table, tt[0], tt[1])
		}
	}
	if tt := total["table4"]; tt[0] > 50 {
		t.Errorf("table4: %d runs in total, want at most 50", tt[0])
	}
}

// fitPattern renders whether each n in ns fits: the index of the
// configuration that fit, or '.' when none did.
func fitPattern(f Framework, build func(int) *nnet.Net, ns []int) string {
	cells := par.Map(ns, 0, func(n int) byte {
		r, cfg, err := run(f, build(n), hw.TeslaK40c)
		switch {
		case err != nil:
			return '!'
		case r == nil:
			return '.'
		}
		return byte('0' + cfg)
	})
	return string(cells)
}

// TestNonMonotoneCells pins the two Table 5 cells whose fits are not
// monotone in batch, where a search's answer depends on which batches
// it probes. TensorFlow/InceptionV4 (all under tensorflow-swap) fails
// at 292, 297, 299 and 306 between fits up to 307; the reference
// bisection probes 306 before 307 and answers 305, as both searches
// must. SuperNeurons/AlexNet fails from 2079 to 2118 and fits again up
// to 2263. A change to the TensorFlow model, the tensor cache or the
// pool that alters either pattern must fail here, not move a table.
func TestNonMonotoneCells(t *testing.T) {
	span := func(lo, hi int) []int {
		var ns []int
		for n := lo; n <= hi; n++ {
			ns = append(ns, n)
		}
		return ns
	}
	for _, c := range []struct {
		fw, net string
		batches []int
		want    string
	}{
		{"TensorFlow", "InceptionV4", span(290, 308), "11.1111.1.111111.1."},
		{"SuperNeurons", "AlexNet", []int{2078, 2079, 2118, 2119, 2263, 2264}, "0..00."},
	} {
		f, _ := ByName(c.fw)
		if got := fitPattern(f, nnet.ByName(c.net), c.batches); got != c.want {
			t.Errorf("%s/%s fits over %v = %q, want %q", c.fw, c.net, c.batches, got, c.want)
		}
	}
}

// fuzzProblem turns fuzz input into a monotone capacity problem: a
// probe over [1, hi] whose fits are a prefix, with demands shaped like
// one kind of runtime (or like nothing at all).
func fuzzProblem(shape uint8, x, y, z uint32, seed int64) (func(int) (demand, bool), int64) {
	capacity := int64(1)<<32 + int64(z)
	a := int64(x)             // intercept: persistent state
	b := int64(y)%(1<<26) + 1 // slope: bytes per unit of depth or batch
	need := func(n int) int64 { return a + b*int64(n) }
	switch shape % 5 {
	case 0: // linear: the pool is what the runtime needs
		return func(n int) (demand, bool) {
			d := need(n)
			return demand{pool: d, floor: d / 2}, d <= capacity
		}, capacity
	case 1: // elastic: a cache grows the pool into free memory and
		// plateaus below capacity; the floor trails the need
		slack := int64(z % 4096)
		return func(n int) (demand, bool) {
			d := need(n)
			return demand{pool: min(a+3*b*int64(n), capacity-slack), floor: d - b/2}, d <= capacity
		}, capacity
	case 2: // a config switch: config 0 until it runs out, then a
		// leaner config 1 with a higher intercept
		lean := func(n int) int64 { return a + int64(y)/2 + (b/3+1)*int64(n) }
		return func(n int) (demand, bool) {
			if d := need(n); d <= capacity {
				return demand{config: 0, pool: d, floor: d / 2}, true
			}
			d := lean(n)
			return demand{config: 1, pool: d, floor: d / 2}, d <= capacity
		}, capacity
	case 3: // garbage demands over a random boundary
		rng := rand.New(rand.NewSource(seed))
		k := int(x % (1 << 16))
		return func(n int) (demand, bool) {
			return demand{config: rng.Intn(3), pool: int64(rng.Uint64()), floor: int64(rng.Uint64())}, n <= k
		}, capacity
	default: // no demands at all
		k := int(x % (1 << 16))
		return func(n int) (demand, bool) { return demand{}, n <= k }, capacity
	}
}

// FuzzLargestFitting runs the predict-then-verify search on generated
// monotone capacity problems and requires the reference bisection's
// answer. It also requires every probe to lie in [1, hi], no n to be
// probed twice, and the run count to stay within the search's bound:
// at most six predictions (two lines for each of three configs), each
// starting a gallop of at most L probes, plus at most L bisection
// probes, where L is the bit length of hi.
func FuzzLargestFitting(f *testing.F) {
	f.Add(uint8(0), uint16(2599), uint32(332765504), uint32(8986624), uint32(0), int64(1))
	f.Add(uint8(1), uint16(2599), uint32(486906176), uint32(8986624), uint32(4000), int64(2))
	f.Add(uint8(2), uint16(1023), uint32(500000000), uint32(30000000), uint32(7), int64(3))
	f.Add(uint8(3), uint16(8191), uint32(2263), uint32(0), uint32(0), int64(4))
	f.Add(uint8(4), uint16(1023), uint32(305), uint32(0), uint32(0), int64(5))
	f.Fuzz(func(t *testing.T, shape uint8, h uint16, x, y, z uint32, seed int64) {
		hi := int(h) + 1
		probe, capacity := fuzzProblem(shape, x, y, z, seed)
		want, _ := refLargestFitting(func(n int) (bool, error) { _, ok := probe(n); return ok, nil }, hi)
		seen := map[int]bool{}
		got, err := largestFitting(func(n int) (demand, bool, error) {
			if n < 1 || n > hi || seen[n] {
				t.Fatalf("probe %d: outside [1, %d] or probed before", n, hi)
			}
			seen[n] = true
			d, ok := probe(n)
			return d, ok, nil
		}, hi, capacity)
		if err != nil || got != want {
			t.Fatalf("shape %d hi %d: got %d (%v), reference %d", shape%5, hi, got, err, want)
		}
		if l := bits.Len(uint(hi)); len(seen) > 7+8*l {
			t.Fatalf("shape %d hi %d: %d runs, bound %d", shape%5, hi, len(seen), 7+8*l)
		}
	})
}

// TestDyadicMid checks the bisection point against its definition: the
// unique n in (lo, bad) with the most trailing zero bits.
func TestDyadicMid(t *testing.T) {
	for lo := 0; lo < 70; lo++ {
		for bad := lo + 2; bad < 140; bad++ {
			best := lo + 1
			for n := lo + 1; n < bad; n++ {
				if bits.TrailingZeros(uint(n)) > bits.TrailingZeros(uint(best)) {
					best = n
				}
			}
			if got := dyadicMid(lo, bad); got != best {
				t.Fatalf("dyadicMid(%d, %d) = %d, want %d", lo, bad, got, best)
			}
		}
	}
	var b strings.Builder
	for lo, bad := 256, 512; lo+1 < bad; {
		m := dyadicMid(lo, bad)
		b.WriteString(" " + strconv.Itoa(m))
		if m <= 305 {
			lo = m
		} else {
			bad = m
		}
	}
	if got, want := b.String(), " 384 320 288 304 312 308 306 305"; got != want {
		t.Errorf("bisecting (256, 512) towards 305 probes%s, want%s (the reference's path)", got, want)
	}
}
