package policy

// demand is what one fitting capacity probe measured: the raw material
// of the search's predictions.
type demand struct {
	// config indexes the framework configuration that fit.
	config int
	// pool is the pool's high-water mark (Result.PoolPeak).
	pool int64
	// floor is persistent state plus the largest layer
	// (Result.PersistentBytes + Result.LPeak): the least any runtime
	// needs, and what SuperNeurons' peak falls to (§3).
	floor int64
}

// line names the demand a prediction extrapolates.
type line uint8

const (
	poolLine line = iota
	floorLine
)

func (l line) of(d demand) int64 {
	if l == floorLine {
		return d.floor
	}
	return d.pool
}

// lineKey is one config's pool or floor line.
type lineKey struct {
	config int
	line   line
}

// fitPoint is one probe that fit.
type fitPoint struct {
	n int
	d demand
}

// prediction is a predicted boundary and the line that gave it.
type prediction struct {
	n int
	lineKey
}

// search is one capacity search over [1, hi]: the largest n that
// fits, assuming everything up to it fits and nothing beyond.
//
// It predicts, then verifies. Demand grows about linearly in depth and
// in batch, so the two largest fitting probes that ran the same
// configuration give a line, and the line reaches capacity at a
// predicted boundary p. The search probes p, then p+1 if p fit or p-1
// if it did not. On a miss it gallops outward from p (offsets 2, 4,
// 8, …) and bisects once a gallop step leaves the bracket.
//
// The pool line (PoolPeak) is exact for runtimes that allocate what
// they need. A caching runtime's pool grows into free memory, so its
// PoolPeak line stalls at capacity long before the boundary. A fit
// beyond a config's pool prediction refutes that line; from then on
// the config predicts with its floor line (persistent bytes plus the
// largest layer), the peak the paper's runtime falls back to. "The
// pool is nearly full" is no test: every runtime's pool nears capacity
// at its own boundary.
//
// Each line predicts once, so predictions cost a bounded number of
// runs however wrong they are. Every probe lies strictly inside the
// bracket (lo, bad) and the search ends on a fit next to a failure, so
// when fits is monotone the answer never depends on the predictions.
type search struct {
	probe    func(int) (demand, bool, error)
	capacity int64
	hi       int

	lo, bad int // largest fit and smallest failure seen; bad is hi+1 until one fails
	fits    []fitPoint
	refuted map[int]bool     // configs whose pool line a fit refuted
	used    map[lineKey]bool // lines that have predicted

	last   prediction // the latest prediction; n is 0 before the first
	verify bool       // the next probe is the latest prediction's neighbour
	anchor int        // where the gallop starts: the latest prediction, or 1
	offset int        // the gallop's next offset from anchor
}

// largestFitting returns the largest n in [1, hi] that probe reports
// fitting, or 0 when n = 1 does not fit. capacity is the device
// memory the demand lines are extrapolated to.
func largestFitting(probe func(int) (demand, bool, error), hi int, capacity int64) (int, error) {
	if hi < 1 {
		return 0, nil
	}
	s := &search{
		probe: probe, capacity: capacity, hi: hi, bad: hi + 1,
		refuted: map[int]bool{}, used: map[lineKey]bool{},
		anchor: 1, offset: 1,
	}
	if err := s.try(1); err != nil || s.lo == 0 {
		return 0, err
	}
	for s.lo+1 < s.bad {
		if err := s.try(s.next()); err != nil {
			return 0, err
		}
	}
	return s.lo, nil
}

// try probes n and narrows the bracket.
func (s *search) try(n int) error {
	d, ok, err := s.probe(n)
	if err != nil {
		return err
	}
	if !ok {
		s.bad = n
		return nil
	}
	s.lo = n
	s.fits = append(s.fits, fitPoint{n, d})
	if s.last.n > 0 && n > s.last.n && s.last.lineKey == (lineKey{d.config, poolLine}) {
		s.refuted[d.config] = true
	}
	return nil
}

// next picks the next probe: the latest prediction's neighbour, else a
// new prediction inside the bracket, else the next gallop step from
// the latest prediction, else the bracket's dyadic midpoint.
func (s *search) next() int {
	if s.verify {
		s.verify = false
	} else if p, ok := s.predict(); ok {
		s.used[p.lineKey] = true
		s.last, s.verify, s.anchor, s.offset = p, true, p.n, 1
		return p.n
	}
	q := s.anchor - s.offset
	if s.anchor <= s.lo { // the anchor fit: gallop up
		q = s.anchor + s.offset
	}
	s.offset *= 2
	if s.lo < q && q < s.bad {
		return q
	}
	return dyadicMid(s.lo, s.bad)
}

// predict extrapolates to capacity the line through the two largest
// fits that ran the configuration of the largest fit. It reports false
// when that line has predicted before or its boundary lies outside the
// bracket. A boundary past an unprobed hi predicts hi itself.
func (s *search) predict() (prediction, bool) {
	k := len(s.fits) - 1
	b := s.fits[k]
	j := k - 1
	for j >= 0 && s.fits[j].d.config != b.d.config {
		j--
	}
	if j < 0 {
		return prediction{}, false
	}
	a := s.fits[j]
	key := lineKey{b.d.config, poolLine}
	if s.refuted[key.config] {
		key.line = floorLine
	}
	da, db := key.line.of(a.d), key.line.of(b.d)
	if s.used[key] || db <= da || db > s.capacity {
		return prediction{}, false
	}
	// Steps past b before the line crosses capacity, in float64 so
	// that nonsense demands cannot overflow.
	steps := (float64(s.capacity) - float64(db)) * float64(b.n-a.n) / (float64(db) - float64(da))
	n := s.hi
	if steps < float64(s.hi-b.n) {
		n = b.n + int(steps)
	}
	if n <= s.lo || n >= s.bad {
		return prediction{}, false
	}
	return prediction{n, key}, true
}

// dyadicMid returns the n in (lo, bad) with the most trailing zero
// bits; it is unique. The reference bisection splits its power-of-two
// brackets exactly there, so once both searches hold the same bracket
// they probe the same points inside it, which is what keeps answers
// identical where fits is not monotone. Each call on a narrowed
// bracket has fewer trailing zeros, so bisection ends within
// log2(bad) probes.
func dyadicMid(lo, bad int) int {
	for step := 1; ; step *= 2 {
		if (lo/(2*step)+1)*2*step >= bad {
			return (lo/step + 1) * step
		}
	}
}
