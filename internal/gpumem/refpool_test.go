package gpumem

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

// refPool is a linear-scan pool written independently of Pool and
// kept as the reference implementation for differential testing:
// Alloc is a first-fit scan of an address-sorted free slice, Free a
// sorted insert followed by coalescing, LargestFree a sweep, and live
// allocations sit in a map. The production Pool must reproduce its
// placement, IDs and errors byte for byte.
//
// Its handles follow Allocation.ID's documented scheme, minted
// independently of the pool's slot table: row i's handles are
// gen<<32 | i+1, a Free bumps the row's generation and stacks the row,
// and Alloc reuses the latest stacked row first.
type refPool struct {
	capacity int64
	opCost   sim.Duration

	free   []span // sorted by addr, fully coalesced
	allocd map[int64]span
	gens   []int64 // per handle row: how often it was freed
	rows   []int   // freed rows, latest last

	used int64
	peak int64
}

func newRefPool(capacity int64, opCost sim.Duration) *refPool {
	capacity = capacity / BlockSize * BlockSize
	if capacity <= 0 {
		panic("gpumem: pool capacity must be at least one block")
	}
	return &refPool{
		capacity: capacity,
		opCost:   opCost,
		free:     []span{{addr: 0, size: capacity}},
		allocd:   make(map[int64]span),
	}
}

func (p *refPool) Alloc(n int64) (Allocation, error) {
	need := roundUp(n)
	for i, f := range p.free {
		if f.size < need {
			continue
		}
		a := Allocation{ID: p.mint(), Addr: f.addr, Bytes: need}
		if f.size == need {
			p.free = append(p.free[:i], p.free[i+1:]...)
		} else {
			p.free[i] = span{addr: f.addr + need, size: f.size - need}
		}
		p.allocd[a.ID] = span{id: a.ID, addr: a.Addr, size: need}
		p.used += need
		if p.used > p.peak {
			p.peak = p.used
		}
		return a, nil
	}
	return Allocation{}, &OOMError{Need: need, Free: p.capacity - p.used, Largest: p.LargestFree()}
}

func (p *refPool) Free(id int64) error {
	s, ok := p.allocd[id]
	if !ok {
		return fmt.Errorf("gpumem: free of unknown allocation %d", id)
	}
	delete(p.allocd, id)
	row := int(id&(1<<32-1)) - 1
	p.gens[row]++
	p.rows = append(p.rows, row)
	p.used -= s.size

	i := sort.Search(len(p.free), func(i int) bool { return p.free[i].addr > s.addr })
	p.free = append(p.free, span{})
	copy(p.free[i+1:], p.free[i:])
	p.free[i] = span{addr: s.addr, size: s.size}
	if i+1 < len(p.free) && p.free[i].addr+p.free[i].size == p.free[i+1].addr {
		p.free[i].size += p.free[i+1].size
		p.free = append(p.free[:i+1], p.free[i+2:]...)
	}
	if i > 0 && p.free[i-1].addr+p.free[i-1].size == p.free[i].addr {
		p.free[i-1].size += p.free[i].size
		p.free = append(p.free[:i], p.free[i+1:]...)
	}
	return nil
}

// mint returns the handle of the next allocation: the latest freed
// row at its current generation, else a new row.
func (p *refPool) mint() int64 {
	if k := len(p.rows) - 1; k >= 0 {
		row := p.rows[k]
		p.rows = p.rows[:k]
		return p.gens[row]<<32 | int64(row+1)
	}
	p.gens = append(p.gens, 0)
	return int64(len(p.gens))
}

func (p *refPool) Used() int64      { return p.used }
func (p *refPool) Peak() int64      { return p.peak }
func (p *refPool) Capacity() int64  { return p.capacity }
func (p *refPool) FreeBytes() int64 { return p.capacity - p.used }
func (p *refPool) MaxAlloc() int64  { return p.LargestFree() }
func (p *refPool) FreeSpans() int   { return len(p.free) }

func (p *refPool) LargestFree() int64 {
	var m int64
	for _, f := range p.free {
		if f.size > m {
			m = f.size
		}
	}
	return m
}

func (p *refPool) Fragmentation() float64 {
	free := p.FreeBytes()
	if free == 0 {
		return 0
	}
	return 1 - float64(p.LargestFree())/float64(free)
}

func (p *refPool) CheckInvariants() error {
	var freeBytes int64
	for i, f := range p.free {
		if f.size <= 0 || f.addr < 0 || f.addr+f.size > p.capacity {
			return fmt.Errorf("free span %d out of range: %+v", i, f)
		}
		if f.addr%BlockSize != 0 || f.size%BlockSize != 0 {
			return fmt.Errorf("free span %d not block aligned: %+v", i, f)
		}
		if i > 0 {
			prev := p.free[i-1]
			if prev.addr+prev.size > f.addr {
				return fmt.Errorf("free spans overlap: %+v then %+v", prev, f)
			}
			if prev.addr+prev.size == f.addr {
				return fmt.Errorf("free spans not coalesced: %+v then %+v", prev, f)
			}
		}
		freeBytes += f.size
	}
	var usedBytes int64
	for _, s := range p.allocd {
		usedBytes += s.size
	}
	if usedBytes != p.used {
		return fmt.Errorf("used accounting drift: sum %d vs counter %d", usedBytes, p.used)
	}
	if freeBytes+usedBytes != p.capacity {
		return fmt.Errorf("free+used = %d, capacity %d", freeBytes+usedBytes, p.capacity)
	}
	return nil
}
