package tcache

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func newTensors(n int) []*tensor.Tensor {
	out := make([]*tensor.Tensor, n)
	for i := range out {
		out[i] = &tensor.Tensor{ID: i, Shape: tensor.Shape{N: 1, C: 1, H: 1, W: 256}} // 1 KiB each
	}
	return out
}

func TestCheckHitMiss(t *testing.T) {
	c := New()
	ts := newTensors(2)
	if c.Check(ts[0]) {
		t.Fatal("empty cache must miss")
	}
	c.In(ts[0])
	if !c.Check(ts[0]) {
		t.Fatal("inserted tensor must hit")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit 1 miss", st)
	}
}

func TestLRUOrderAndTouch(t *testing.T) {
	c := New()
	ts := newTensors(3)
	c.In(ts[0])
	c.In(ts[1])
	c.In(ts[2]) // MRU..LRU = 2,1,0
	got := mruOrder(c)
	if got[0] != ts[2] || got[2] != ts[0] {
		t.Fatal("insertion order broken")
	}
	c.Check(ts[0]) // touch 0 -> MRU
	got = mruOrder(c)
	if got[0] != ts[0] || got[2] != ts[1] {
		t.Fatal("touch must move to MRU")
	}
}

func TestVictimsAreLRUFirst(t *testing.T) {
	c := New()
	ts := newTensors(3)
	for _, x := range ts {
		c.In(x)
	}
	v, ok := c.Victims(1024) // one tensor's worth
	if !ok || len(v) != 1 || v[0] != ts[0] {
		t.Fatalf("victims = %v, want oldest tensor only", v)
	}
	v, ok = c.Victims(2048)
	if !ok || len(v) != 2 || v[0] != ts[0] || v[1] != ts[1] {
		t.Fatal("two-victim selection wrong")
	}
}

func TestLockedTensorsNotEvicted(t *testing.T) {
	c := New()
	ts := newTensors(2)
	c.In(ts[0])
	c.In(ts[1])
	ts[0].Locked = true
	v, ok := c.Victims(1024)
	if !ok || len(v) != 1 || v[0] != ts[1] {
		t.Fatal("locked LRU tensor must be skipped")
	}
	ts[1].Locked = true
	if _, ok := c.Victims(1024); ok {
		t.Fatal("all-locked cache must report insufficient space")
	}
}

func TestInsufficientVictims(t *testing.T) {
	c := New()
	c.In(newTensors(1)[0])
	if _, ok := c.Victims(10 * 1024); ok {
		t.Fatal("cache smaller than need must fail")
	}
}

func TestEvictedAndRemove(t *testing.T) {
	c := New()
	ts := newTensors(2)
	c.In(ts[0])
	c.In(ts[1])
	c.Evicted(ts[0])
	if c.Contains(ts[0]) || c.Len() != 1 {
		t.Fatal("evicted tensor still cached")
	}
	st := c.Stats()
	if st.Evictions != 1 || st.EvictedBytes != 1024 {
		t.Errorf("eviction stats = %+v", st)
	}
	c.Remove(ts[1])
	if c.Len() != 0 {
		t.Fatal("remove failed")
	}
	if c.Stats().Evictions != 1 {
		t.Error("Remove must not count as eviction")
	}
	c.Remove(ts[1]) // idempotent
}

func TestInUnlocksAndDeduplicates(t *testing.T) {
	c := New()
	ts := newTensors(1)
	ts[0].Locked = true
	c.In(ts[0])
	if ts[0].Locked {
		t.Error("In must unlock (Alg. 2 line 2)")
	}
	c.In(ts[0]) // re-insert must not duplicate
	if c.Len() != 1 {
		t.Error("duplicate insertion")
	}
}

// Property: after any operation sequence, Victims(need) returns
// unlocked tensors in strict LRU order with enough combined bytes.
func TestVictimOrderProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		c := New()
		ts := newTensors(8)
		for _, op := range ops {
			x := ts[int(op)%8]
			switch (op / 8) % 3 {
			case 0:
				c.In(x)
			case 1:
				c.Check(x)
			case 2:
				c.Remove(x)
			}
		}
		v, ok := c.Victims(2048)
		if !ok {
			return true
		}
		// Victims must appear in reverse (LRU-first) order of the list.
		all := mruOrder(c)
		idx := make(map[int]int)
		for i, x := range all {
			idx[x.ID] = i
		}
		last := len(all)
		for _, x := range v {
			if idx[x.ID] >= last {
				return false
			}
			last = idx[x.ID]
		}
		var sum int64
		for _, x := range v {
			sum += x.Bytes()
		}
		return sum >= 2048
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestWarmCacheAllocatesNothing: once a cache's table covers the
// tensor IDs in use, In, Check, Remove and Victims do no heap
// allocation, and neither does refilling it after a Reset.
func TestWarmCacheAllocatesNothing(t *testing.T) {
	c := New()
	ts := newTensors(64)
	for _, x := range ts {
		c.In(x)
	}
	c.Victims(64 * 1024) // sizes the victims scratch
	cycle := func() {
		for _, x := range ts[:32] {
			c.Remove(x)
		}
		for _, x := range ts[:32] {
			c.In(x)
		}
		for _, x := range ts {
			c.Check(x)
		}
		c.Victims(48 * 1024)
	}
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Errorf("a warm cache's In/Check/Remove/Victims made %.1f allocations, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		c.Reset()
		for _, x := range ts {
			c.In(x)
		}
	}); allocs != 0 {
		t.Errorf("refilling a reset cache made %.1f allocations, want 0", allocs)
	}
}

// TestResetMatchesNew: a cache reset after use behaves as a new one.
func TestResetMatchesNew(t *testing.T) {
	ts := newTensors(8)
	c := New()
	for _, x := range ts {
		c.In(x)
	}
	c.Check(ts[3])
	c.Evicted(ts[0])
	c.Reset()
	if c.Len() != 0 || c.Stats() != (Stats{}) || len(mruOrder(c)) != 0 || c.Contains(ts[1]) {
		t.Fatalf("reset cache holds %d tensors, stats %+v", c.Len(), c.Stats())
	}
	fresh := New()
	for _, x := range []*tensor.Tensor{ts[5], ts[2], ts[7]} {
		c.In(x)
		fresh.In(x)
	}
	c.Check(ts[2])
	fresh.Check(ts[2])
	got, want := mruOrder(c), mruOrder(fresh)
	if !reflect.DeepEqual(got, want) || c.Stats() != fresh.Stats() {
		t.Fatalf("reset cache order %v stats %+v, a new cache %v %+v", got, c.Stats(), want, fresh.Stats())
	}
}

// mruOrder returns the cached tensors from MRU to LRU.
func mruOrder(c *Cache) []*tensor.Tensor {
	out := make([]*tensor.Tensor, 0, c.n)
	for id := c.front; id != none; id = c.entries[id].next {
		out = append(out, c.entries[id].t)
	}
	return out
}
