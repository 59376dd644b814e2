package smt

import "cacheuniformity/internal/cache"

// ThreadCounters tracks per-hardware-thread hit/miss totals for shared
// caches — the fairness view of the paper's SMT experiments: a shared
// scheme can lower the aggregate miss rate while starving one thread, so
// Figures 13/14-style comparisons deserve a per-thread breakdown.
type ThreadCounters struct {
	// counts is indexed by thread id; a thread with zero accesses never
	// issued one.
	counts [256]cache.Counters
}

func newThreadCounters() *ThreadCounters { return &ThreadCounters{} }

func (tc *ThreadCounters) add(thread uint8, r cache.AccessResult) { tc.counts[thread].Add(r) }

func (tc *ThreadCounters) reset() { tc.counts = [256]cache.Counters{} }

// Thread returns the counters for one hardware thread (zero value if the
// thread never issued an access).
func (tc *ThreadCounters) Thread(id uint8) cache.Counters { return tc.counts[id] }

// Threads returns the ids that issued at least one access, ascending.
func (tc *ThreadCounters) Threads() []uint8 {
	var out []uint8
	for id := range tc.counts {
		if tc.counts[id].Accesses > 0 {
			out = append(out, uint8(id))
		}
	}
	return out
}

// MissRateSpread returns max−min per-thread miss rate over the threads
// that issued an access — 0 means the scheme treats all threads
// identically.
func (tc *ThreadCounters) MissRateSpread() float64 {
	first := true
	var lo, hi float64
	for id := range tc.counts {
		c := &tc.counts[id]
		if c.Accesses == 0 {
			continue
		}
		mr := c.MissRate()
		if first {
			lo, hi = mr, mr
			first = false
			continue
		}
		if mr < lo {
			lo = mr
		}
		if mr > hi {
			hi = mr
		}
	}
	return hi - lo
}
