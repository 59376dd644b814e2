// Package smt models the paper's SMT-like multithreaded experiments
// (Section IV-E, Figures 13 and 14): multiple hardware threads share one
// L1, and the cache may apply a different index function per thread
// (Figure 13) or statically partition its sets per thread while sharing
// Peir-style SHT/OUT tables so one thread's displaced blocks can occupy
// another's cold sets (Figure 14, the "adaptive partitioned" scheme).
//
// The paper uses M-Sim for these runs; our substitute interleaves
// per-thread traces (trace.RoundRobin / trace.Stochastic) into one shared
// reference stream, which preserves everything the studied schemes can
// see: which thread issues which address in which order.
package smt

import (
	"fmt"

	"cacheuniformity/internal/addr"
	"cacheuniformity/internal/assoc"
	"cacheuniformity/internal/cache"
	"cacheuniformity/internal/indexing"
	"cacheuniformity/internal/trace"
)

// sharedDM is the direct-mapped store behind both shared caches: a
// cache.Cache holding the lines and the aggregate and per-set counters,
// plus the per-thread counters.  The embedding cache picks each access's
// set; sharedDM takes the direct-mapped step there.
type sharedDM struct {
	dm        *cache.Cache
	perThread *ThreadCounters
}

func newSharedDM(l addr.Layout) (sharedDM, error) {
	dm, err := cache.New(cache.Config{Layout: l, Ways: 1, WriteAllocate: true})
	if err != nil {
		return sharedDM{}, err
	}
	return sharedDM{dm: dm, perThread: newThreadCounters()}, nil
}

// access is Access at the chosen set.
func (d sharedDM) access(set int, a trace.Access) cache.AccessResult {
	res := d.dm.AccessSet(set, a)
	d.perThread.add(a.Thread, res)
	return res
}

// step is access without the AccessResult, for the batch loops.
func (d sharedDM) step(set int, a trace.Access) {
	hit, victim := d.dm.StepSet(set, a)
	d.perThread.counts[a.Thread].AddStep(hit, victim)
}

// Sets implements cache.Model.
func (d sharedDM) Sets() int { return d.dm.Sets() }

// Reset implements cache.Model.
func (d sharedDM) Reset() {
	d.dm.Reset()
	d.perThread.reset()
}

// PerThread exposes the per-hardware-thread counters.
func (d sharedDM) PerThread() *ThreadCounters { return d.perThread }

// Counters implements cache.Model.
func (d sharedDM) Counters() cache.Counters { return d.dm.Counters() }

// PerSet implements cache.Model.
func (d sharedDM) PerSet() cache.PerSet { return d.dm.PerSet() }

// SharedIndexCache is a direct-mapped cache shared by several hardware
// threads, where each thread uses its own index function — the paper's
// "multiple indexing schemes within a single cache system" (Figure 5,
// evaluated in Figure 13 with distinct odd multipliers per thread).
//
// Threads in these experiments run disjoint address spaces, so a block is
// only ever looked up under its owner's mapping; the full block-address
// tag keeps correctness even if mappings disagree.
type SharedIndexCache struct {
	sharedDM
	name string
	// funcs[i] is the index function for thread i; threads beyond the
	// slice use funcs[0].
	funcs []indexing.Func
}

// NewSharedIndexCache builds the shared cache.  funcs must be non-empty;
// every function's range must fit the layout.
func NewSharedIndexCache(l addr.Layout, funcs []indexing.Func) (*SharedIndexCache, error) {
	if len(funcs) == 0 {
		return nil, fmt.Errorf("smt: need at least one index function")
	}
	name := "shared"
	for _, f := range funcs {
		if f == nil {
			return nil, fmt.Errorf("smt: nil index function")
		}
		if f.Sets() > l.Sets() {
			return nil, fmt.Errorf("smt: index %s reaches %d sets, layout has %d", f.Name(), f.Sets(), l.Sets())
		}
		name += "/" + f.Name()
	}
	d, err := newSharedDM(l)
	if err != nil {
		return nil, err
	}
	return &SharedIndexCache{sharedDM: d, name: name, funcs: funcs}, nil
}

// Name implements cache.Model.
func (s *SharedIndexCache) Name() string { return s.name }

// setFor places an access with its thread's index function.
func (s *SharedIndexCache) setFor(a trace.Access) int {
	if int(a.Thread) < len(s.funcs) {
		return s.funcs[a.Thread].Index(a.Addr)
	}
	return s.funcs[0].Index(a.Addr)
}

// Access implements cache.Model.
func (s *SharedIndexCache) Access(a trace.Access) cache.AccessResult {
	return s.access(s.setFor(a), a)
}

// AccessBatch implements cache.BatchAccessor.
//
//lint:hotpath SMT replay inner loop
func (s *SharedIndexCache) AccessBatch(batch []trace.Access) {
	for _, a := range batch {
		s.step(s.setFor(a), a)
	}
}

// PartitionedCache statically splits a direct-mapped cache's sets evenly
// among threads: thread i may only use sets [i·S/T, (i+1)·S/T).  This is
// the paper's baseline for Figure 14 ("we divided the cache equally among
// the two threads") — thread isolation without adaptivity.
type PartitionedCache struct {
	sharedDM
	name    string
	layout  addr.Layout
	threads int
}

// NewPartitionedCache splits the layout's sets among threads partitions.
// threads must divide the set count.
func NewPartitionedCache(l addr.Layout, threads int) (*PartitionedCache, error) {
	if threads <= 0 || l.Sets()%threads != 0 {
		return nil, fmt.Errorf("smt: %d threads must evenly divide %d sets", threads, l.Sets())
	}
	d, err := newSharedDM(l)
	if err != nil {
		return nil, err
	}
	return &PartitionedCache{
		sharedDM: d,
		name:     fmt.Sprintf("partitioned/%d", threads),
		layout:   l,
		threads:  threads,
	}, nil
}

// Name implements cache.Model.
func (p *PartitionedCache) Name() string { return p.name }

// SetFor returns the partitioned placement for an access: the conventional
// index folded into the thread's partition.
func (p *PartitionedCache) SetFor(a trace.Access) int {
	partSets := p.layout.Sets() / p.threads
	t := int(a.Thread) % p.threads
	return t*partSets + int(p.layout.Index(a.Addr))%partSets
}

// Access implements cache.Model.
func (p *PartitionedCache) Access(a trace.Access) cache.AccessResult {
	return p.access(p.SetFor(a), a)
}

// AccessBatch implements cache.BatchAccessor.
//
//lint:hotpath SMT replay inner loop
func (p *PartitionedCache) AccessBatch(batch []trace.Access) {
	for _, a := range batch {
		p.step(p.SetFor(a), a)
	}
}

// NewAdaptivePartitioned builds the paper's Figure-14 scheme: the cache is
// statically partitioned per thread, but Peir's SHT and OUT tables span
// the whole cache, so a protected victim from one thread's partition can
// shelter in a disposable line of another's — "increasing the cache sizes
// available to each thread adaptively".
func NewAdaptivePartitioned(l addr.Layout, threads int, cfg assoc.AdaptiveConfig) (*assoc.AdaptiveCache, error) {
	if threads <= 0 || l.Sets()%threads != 0 {
		return nil, fmt.Errorf("smt: %d threads must evenly divide %d sets", threads, l.Sets())
	}
	partSets := l.Sets() / threads
	indexer := func(a trace.Access) int {
		t := int(a.Thread) % threads
		return t*partSets + int(l.Index(a.Addr))%partSets
	}
	return assoc.NewAdaptiveCacheIndexer(l, fmt.Sprintf("adaptive_partitioned/%d", threads), indexer, cfg)
}
