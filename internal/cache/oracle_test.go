package cache_test

import (
	"fmt"
	"reflect"
	"testing"

	"cacheuniformity/internal/addr"
	"cacheuniformity/internal/cache"
	"cacheuniformity/internal/indexing"
	"cacheuniformity/internal/registry"
	"cacheuniformity/internal/rng"
	"cacheuniformity/internal/smt"
	"cacheuniformity/internal/trace"
	"cacheuniformity/internal/workload"
)

// refDM is the differential oracle for the direct-mapped step: a naive
// map from set to resident line that shares no code with package cache
// beyond the counter types it fills.  Only the index function is shared,
// because it is the scheme under test rather than model logic.
type refDM struct {
	idx                         indexing.Func
	offsetBits                  uint
	sets                        int
	writeAllocate, writeThrough bool

	lines              map[int]refLine
	ctr                cache.Counters
	accs, hits, misses []uint64
}

type refLine struct {
	block uint64
	dirty bool
}

func newRefDM(l addr.Layout, idx indexing.Func, writeAllocate, writeThrough bool) *refDM {
	r := &refDM{idx: idx, offsetBits: l.OffsetBits, sets: l.Sets(), writeAllocate: writeAllocate, writeThrough: writeThrough}
	r.reset()
	return r
}

func (r *refDM) reset() {
	r.lines = map[int]refLine{}
	r.ctr = cache.Counters{}
	r.accs, r.hits, r.misses = make([]uint64, r.sets), make([]uint64, r.sets), make([]uint64, r.sets)
}

func (r *refDM) access(a trace.Access) {
	set := r.idx.Index(a.Addr)
	block := uint64(a.Addr) >> r.offsetBits
	store := a.Kind == trace.Write
	r.ctr.Accesses++
	r.accs[set]++
	ln, resident := r.lines[set]
	if resident && ln.block == block {
		r.ctr.Hits++
		r.ctr.PrimaryHits++
		r.hits[set]++
		if store && !r.writeThrough {
			r.lines[set] = refLine{block: block, dirty: true}
		}
		return
	}
	r.ctr.Misses++
	r.misses[set]++
	if store && !r.writeAllocate {
		return
	}
	if resident {
		r.ctr.Evictions++
		if ln.dirty {
			r.ctr.Writebacks++
		}
	}
	r.lines[set] = refLine{block: block, dirty: store && !r.writeThrough}
}

func (r *refDM) lookup(a addr.Addr) bool {
	ln, ok := r.lines[r.idx.Index(a)]
	return ok && ln.block == uint64(a)>>r.offsetBits
}

func (r *refDM) utilization() float64 { return float64(len(r.lines)) / float64(r.sets) }

var oracleLayout = addr.MustLayout(32, 1024, 32)

// dmKind is one direct-mapped registry kind and its index function.
type dmKind struct {
	kind string
	idx  indexing.Func
}

// directMappedKinds resolves every registered scheme kind at its defaults
// and keeps the ones that build a one-way cache.Cache: the schemes the
// direct-mapped step runs.
func directMappedKinds(t *testing.T) []dmKind {
	t.Helper()
	profile := workload.MustLookup("fft").StreamFunc(1, 20_000)
	var out []dmKind
	found := map[string]bool{}
	for _, k := range registry.SchemeKinds() {
		s, err := registry.ResolveScheme(registry.Decl{Kind: k.Kind})
		if err != nil {
			t.Fatalf("resolve %s: %v", k.Kind, err)
		}
		m, err := s.Build(oracleLayout, profile)
		if err != nil {
			t.Fatalf("build %s: %v", k.Kind, err)
		}
		if c, ok := m.(*cache.Cache); ok && c.Ways() == 1 {
			out = append(out, dmKind{k.Kind, c.Index()})
			found[k.Kind] = true
		}
	}
	for _, want := range []string{"baseline", "xor", "odd_multiplier", "prime_modulo", "givargis", "givargis_xor", "polynomial", "sandybridge"} {
		if !found[want] {
			t.Fatalf("registry kind %q does not build a direct-mapped cache.Cache (found %v)", want, found)
		}
	}
	return out
}

// oracleStreams returns a random stream (blocks spread over four cache
// capacities, a third of them stores) and an adversarial one: runs over a
// few blocks that all map to one set under idx, so every run thrashes a
// single line, interleaved with re-touches that hit.
func oracleStreams(idx indexing.Func, seed uint64, n int) []namedTrace {
	src := rng.New(seed)
	kind := func() trace.Kind {
		if src.Intn(3) == 0 {
			return trace.Write
		}
		return trace.Read
	}
	random := make(trace.Trace, n)
	span := 4 * oracleLayout.Sets() * oracleLayout.BlockBytes()
	for i := range random {
		random[i] = trace.Access{Addr: addr.Addr(src.Intn(span)), Kind: kind()}
	}

	bySet := map[int][]addr.Addr{}
	var conflicted []int
	for b := 0; len(conflicted) < 8 && b < 1<<20; b++ {
		a := oracleLayout.BlockAddr(uint64(src.Intn(1 << 22)))
		set := idx.Index(a)
		bySet[set] = append(bySet[set], a)
		if len(bySet[set]) == 4 {
			conflicted = append(conflicted, set)
		}
	}
	adversarial := make(trace.Trace, 0, n)
	for len(adversarial) < n {
		group := bySet[conflicted[src.Intn(len(conflicted))]]
		for run := 2 + src.Intn(6); run > 0; run-- {
			a := group[src.Intn(len(group))] + addr.Addr(src.Intn(oracleLayout.BlockBytes()))
			adversarial = append(adversarial, trace.Access{Addr: a, Kind: kind()})
		}
	}
	return []namedTrace{{"random", random}, {"adversarial", adversarial[:n]}}
}

type namedTrace struct {
	name string
	tr   trace.Trace
}

// stateOf is what the oracle compares after every chunk.
type stateOf struct {
	Counters cache.Counters
	Accesses []uint64
	Hits     []uint64
	Misses   []uint64
}

func modelState(m cache.Model) stateOf {
	ps := m.PerSet()
	return stateOf{Counters: m.Counters(), Accesses: ps.Accesses, Hits: ps.Hits, Misses: ps.Misses}
}

func refState(r *refDM) stateOf {
	return stateOf{Counters: r.ctr, Accesses: r.accs, Hits: r.hits, Misses: r.misses}
}

// replayAgainstOracle feeds tr in random chunks to the reference and to
// every model (per-access models via Access, the others via AccessBatch
// on the same chunk), resets everything once midway, and compares the
// counters and per-set arrays after every chunk.  probe, when non-nil,
// adds model-specific checks (Lookup, Utilization).
func replayAgainstOracle(t *testing.T, tr trace.Trace, ref *refDM, perAccess, batched []cache.Model, probe func(chunk trace.Trace)) {
	t.Helper()
	all := append(append([]cache.Model{}, perAccess...), batched...)
	src := rng.New(uint64(len(tr)) ^ 0x5eed)
	resetAt := len(tr)/3 + src.Intn(len(tr)/3)
	for lo := 0; lo < len(tr); {
		if lo == resetAt {
			ref.reset()
			for _, m := range all {
				m.Reset()
			}
		}
		hi := min(len(tr), lo+1+src.Intn(2*trace.DefaultBatch))
		if lo < resetAt && hi > resetAt {
			hi = resetAt
		}
		chunk := tr[lo:hi]
		for _, a := range chunk {
			ref.access(a)
		}
		for _, m := range perAccess {
			for _, a := range chunk {
				m.Access(a)
			}
		}
		for _, m := range batched {
			m.(cache.BatchAccessor).AccessBatch(chunk)
		}
		want := refState(ref)
		for _, m := range all {
			if got := modelState(m); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s diverged from the reference after access %d:\n got counters %+v\nwant counters %+v",
					m.Name(), hi, got.Counters, want.Counters)
			}
		}
		if probe != nil {
			probe(chunk)
		}
		lo = hi
	}
}

// TestDirectMappedOracle holds cache.Cache's direct-mapped step — through
// Access one at a time and through AccessBatch over random batch splits —
// to the naive reference on every direct-mapped registry kind, every
// write policy pair and every replacement policy at one way.
func TestDirectMappedOracle(t *testing.T) {
	policies := []cache.Policy{cache.LRU{}, cache.FIFO{}, cache.PLRU{}, cache.Random{Seed: 7}}
	for _, k := range directMappedKinds(t) {
		idx := k.idx
		for _, st := range oracleStreams(idx, 11, 40_000) {
			for _, wa := range []bool{true, false} {
				for _, wt := range []bool{false, true} {
					t.Run(fmt.Sprintf("%s/%s/alloc=%t/through=%t", k.kind, st.name, wa, wt), func(t *testing.T) {
						var perAccess, batched []cache.Model
						var all []*cache.Cache
						for _, pol := range policies {
							for _, into := range []*[]cache.Model{&perAccess, &batched} {
								c, err := cache.New(cache.Config{Layout: oracleLayout, Ways: 1, Index: idx,
									Replacement: pol, WriteAllocate: wa, WriteThrough: wt})
								if err != nil {
									t.Fatal(err)
								}
								*into = append(*into, c)
								all = append(all, c)
							}
						}
						ref := newRefDM(oracleLayout, idx, wa, wt)
						replayAgainstOracle(t, st.tr, ref, perAccess, batched, func(chunk trace.Trace) {
							for _, c := range all {
								if got, want := c.Utilization(), ref.utilization(); got != want {
									t.Fatalf("%s: Utilization %v, reference %v", c.Name(), got, want)
								}
								for _, a := range chunk[:min(len(chunk), 64)] {
									if got, want := c.Lookup(a.Addr), ref.lookup(a.Addr); got != want {
										t.Fatalf("%s: Lookup(%#x) = %t, reference %t", c.Name(), a.Addr, got, want)
									}
								}
							}
						})
					})
				}
			}
		}
	}
}

// TestSharedCachesOracle holds the SMT shared caches to the same
// reference on their single-thread projections: one thread through a
// SharedIndexCache is a write-back, write-allocate direct-mapped cache on
// that thread's index function, and a one-partition PartitionedCache is
// the conventional modulo cache.  The one thread's counters must equal
// the aggregate.
func TestSharedCachesOracle(t *testing.T) {
	for _, k := range directMappedKinds(t) {
		idx := k.idx
		for _, st := range oracleStreams(idx, 23, 30_000) {
			t.Run(k.kind+"/"+st.name, func(t *testing.T) {
				build := func() cache.Model {
					s, err := smt.NewSharedIndexCache(oracleLayout, []indexing.Func{idx})
					if err != nil {
						t.Fatal(err)
					}
					return s
				}
				perAccess, batched := build(), build()
				replayAgainstOracle(t, st.tr, newRefDM(oracleLayout, idx, true, false),
					[]cache.Model{perAccess}, []cache.Model{batched}, func(trace.Trace) {
						for _, m := range []cache.Model{perAccess, batched} {
							if got := m.(*smt.SharedIndexCache).PerThread().Thread(0); got != m.Counters() {
								t.Fatalf("%s: thread 0 counters %+v, aggregate %+v", m.Name(), got, m.Counters())
							}
						}
					})
			})
		}
	}
	modulo := indexing.NewModulo(oracleLayout)
	for _, st := range oracleStreams(modulo, 29, 30_000) {
		t.Run("partitioned/"+st.name, func(t *testing.T) {
			build := func() cache.Model {
				p, err := smt.NewPartitionedCache(oracleLayout, 1)
				if err != nil {
					t.Fatal(err)
				}
				return p
			}
			perAccess, batched := build(), build()
			replayAgainstOracle(t, st.tr, newRefDM(oracleLayout, modulo, true, false),
				[]cache.Model{perAccess}, []cache.Model{batched}, func(trace.Trace) {
					for _, m := range []cache.Model{perAccess, batched} {
						if got := m.(*smt.PartitionedCache).PerThread().Thread(0); got != m.Counters() {
							t.Fatalf("%s: thread 0 counters %+v, aggregate %+v", m.Name(), got, m.Counters())
						}
					}
				})
		})
	}
}
