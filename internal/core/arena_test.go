package core

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/hw"
	"repro/internal/nnet"
	"repro/internal/par"
	"repro/internal/tcache"
)

// arenaCell is one run of the arena reference battery.
type arenaCell struct {
	name string
	net  *nnet.Net
	cfg  Config
}

// arenaCells is every registry net at batch 16 under every manager.
func arenaCells() []arenaCell {
	var cells []arenaCell
	for _, e := range nnet.Registry {
		for _, mgr := range Names() {
			cells = append(cells, arenaCell{
				name: e.Name + "/" + mgr,
				net:  e.Build(16),
				cfg:  mustManager(mgr),
			})
		}
	}
	return cells
}

// arenaOutcome is what a run returns, with the error as its text so
// two failures compare equal when they say the same thing.
type arenaOutcome struct {
	res *Result
	err string
}

func outcome(res *Result, err error) arenaOutcome {
	if err != nil {
		return arenaOutcome{res: res, err: err.Error()}
	}
	return arenaOutcome{res: res}
}

// dirtyArena returns an arena left behind by two runs of a network
// larger than every registry net: one to completion under
// SuperNeurons, which fills every plan, then one that runs out of
// memory mid-iteration and so leaves tensors resident, pinned and
// allocated in the pool.
func dirtyArena(t *testing.T, bigger *nnet.Net) *runArena {
	t.Helper()
	a := new(runArena)
	res, err := a.run(bigger, SuperNeurons(hw.TeslaK40c))
	if err != nil {
		t.Fatalf("dirtying run: %v", err)
	}
	// Without liveness the naive manager keeps every tensor, so a pool
	// SuperNeurons just fits fills up partway through the iteration.
	oom := mustManager("naive")
	oom.PoolBytes = res.PoolPeak
	if _, err := a.run(bigger, oom); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("dirtying run: err = %v, want out of memory", err)
	}
	return a
}

// TestDirtyArenaMatchesFresh is the arena's reference test: a run on
// an arena dirtied by a different, larger network returns the Result
// (or the error) of a run on a fresh arena, and lowers the identical
// program, for every registry net under every manager.
func TestDirtyArenaMatchesFresh(t *testing.T) {
	bigger := nnet.ResNetTable4(8, 60)
	for _, c := range arenaCells() {
		if len(c.net.Nodes) >= len(bigger.Nodes) {
			t.Fatalf("%s: %d nodes, the dirtying net only %d", c.name, len(c.net.Nodes), len(bigger.Nodes))
		}
		fresh := new(runArena)
		want := outcome(fresh.run(c.net, c.cfg))
		dirty := dirtyArena(t, bigger)
		got := outcome(dirty.run(c.net, c.cfg))
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the run on a dirty arena differs from the fresh run (err %q, want %q)", c.name, got.err, want.err)
		}
		if !reflect.DeepEqual(dirty.prog, fresh.prog) {
			t.Errorf("%s: the program lowered into a dirty arena differs from a fresh lowering", c.name)
		}
	}
}

// TestPooledArenasMatchFresh runs the battery twice through Run on
// concurrent workers, so pooled arenas are reused across goroutines
// and across nets, and checks every run against a fresh arena's.
func TestPooledArenasMatchFresh(t *testing.T) {
	cells := arenaCells()
	want := make([]arenaOutcome, len(cells))
	for i, c := range cells {
		want[i] = outcome(new(runArena).run(c.net, c.cfg))
	}
	for pass := 1; pass <= 2; pass++ {
		got := par.Map(cells, 0, func(c arenaCell) arenaOutcome { return outcome(Run(c.net, c.cfg)) })
		for i, c := range cells {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("pass %d, %s: the pooled run differs from the fresh run (err %q, want %q)",
					pass, c.name, got[i].err, want[i].err)
			}
		}
	}
}

// TestArenaReusesTensorCache: a run with the Tensor Cache on uses the
// arena's cache, reset, and a second run on the same arena grows no
// new cache storage.
func TestArenaReusesTensorCache(t *testing.T) {
	cfg := SuperNeurons(hw.TeslaK40c).withDefaults()
	cfg.PoolBytes = 2 * hw.GiB // tight enough that the cache evicts
	net := nnet.ResNet(50, 32)
	a := new(runArena)
	table := func() (uintptr, int) {
		v := reflect.ValueOf(&a.cache).Elem().FieldByName("entries")
		return v.Pointer(), v.Cap()
	}
	var first *Result
	for run := 1; run <= 2; run++ {
		rt := newRunState(a, a.lower(net, cfg), cfg)
		if rt.cache != &a.cache || rt.cache.Len() != 0 || rt.cache.Stats() != (tcache.Stats{}) {
			t.Fatalf("run %d: the run's cache is not the arena's, reset", run)
		}
		ptr, capacity := table()
		if err := rt.run(); err != nil {
			t.Fatal(err)
		}
		if run == 1 {
			first = rt.res
			continue
		}
		if p, c := table(); p != ptr || c != capacity {
			t.Errorf("the second run grew the cache table from cap %d to %d", capacity, c)
		}
		if rt.res.CacheHits+rt.res.CacheMisses == 0 || rt.res.Evictions == 0 {
			t.Errorf("the cache saw %d hits, %d misses, %d evictions; want traffic and evictions",
				rt.res.CacheHits, rt.res.CacheMisses, rt.res.Evictions)
		}
		if rt.res.CacheHits != first.CacheHits || rt.res.Evictions != first.Evictions {
			t.Errorf("second run: %d hits %d evictions, first run %d and %d",
				rt.res.CacheHits, rt.res.Evictions, first.CacheHits, first.Evictions)
		}
	}
}
