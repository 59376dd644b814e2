package cache

import (
	"fmt"

	"cacheuniformity/internal/addr"
	"cacheuniformity/internal/indexing"
	"cacheuniformity/internal/trace"
)

// Line is one cache line's bookkeeping state (the simulator carries no
// data payloads).
type Line struct {
	Valid bool
	// Block is the block address held (full block number, not a truncated
	// tag — see the package comment).
	Block uint64
	Dirty bool
}

// Config describes a set-associative cache.
type Config struct {
	// Name labels the cache in reports; defaults to a geometry string.
	Name string
	// Layout fixes block size and the conventional index width.
	Layout addr.Layout
	// Ways is the associativity (1 = direct mapped).
	Ways int
	// Index maps addresses to sets; nil means conventional modulo.
	Index indexing.Func
	// Replacement selects victims within a set; nil means LRU.
	Replacement Policy
	// WriteAllocate controls whether stores that miss fill the cache
	// (true, the default used in all experiments) or bypass it.
	WriteAllocate bool
	// WriteThrough propagates every store to the next level immediately
	// (AccessResult.WroteThrough) instead of marking lines dirty; the
	// cache then never produces writebacks.  The paper's configuration is
	// write-back (false).
	WriteThrough bool
}

// Cache is a set-associative cache with a pluggable index function and
// replacement policy.  It implements Model.
type Cache struct {
	name         string
	layout       addr.Layout
	ways         int
	index        indexing.Func
	policy       Policy
	noAlloc      bool
	writeThrough bool

	// lines is one flat slab: set s owns lines[s*ways : (s+1)*ways].
	lines []Line
	// replSets is one replacement state per set, or nil when the cache is
	// direct mapped: a single way leaves no replacement decision, so
	// direct-mapped caches take the policy-free dmStep instead.
	replSets []SetPolicy

	counters Counters
	perSet   PerSet
}

// New builds a cache from the config.  The number of sets comes from the
// index function's range (so prime-modulo caches expose only p sets of
// counters, matching the fragmentation the paper describes), while storage
// is allocated for the layout's full set count.
func New(cfg Config) (*Cache, error) {
	if cfg.Ways <= 0 {
		return nil, fmt.Errorf("cache: associativity %d must be positive", cfg.Ways)
	}
	idx := cfg.Index
	if idx == nil {
		idx = indexing.NewModulo(cfg.Layout)
	}
	if idx.Sets() > cfg.Layout.Sets() {
		return nil, fmt.Errorf("cache: index function reaches %d sets, layout has %d",
			idx.Sets(), cfg.Layout.Sets())
	}
	pol := cfg.Replacement
	if pol == nil {
		pol = LRU{}
	}
	if v, ok := pol.(WaysValidator); ok {
		if err := v.ValidateWays(cfg.Ways); err != nil {
			return nil, err
		}
	}
	name := cfg.Name
	if name == "" {
		name = fmt.Sprintf("%dx%dB/%dway/%s", cfg.Layout.Sets(), cfg.Layout.BlockBytes(), cfg.Ways, idx.Name())
	}
	c := &Cache{
		name:         name,
		layout:       cfg.Layout,
		ways:         cfg.Ways,
		index:        idx,
		policy:       pol,
		noAlloc:      !cfg.WriteAllocate,
		writeThrough: cfg.WriteThrough,
	}
	c.alloc()
	return c, nil
}

func (c *Cache) alloc() {
	sets := c.layout.Sets()
	c.lines = make([]Line, sets*c.ways)
	if c.ways > 1 {
		c.replSets = make([]SetPolicy, sets)
	}
	c.newReplacement()
	c.perSet = NewPerSet(sets)
}

// newReplacement gives every set fresh replacement state (a direct-mapped
// cache has none to give).
func (c *Cache) newReplacement() {
	for s := range c.replSets {
		c.replSets[s] = c.policy.NewSet(c.ways)
	}
}

// Name implements Model.
func (c *Cache) Name() string { return c.name }

// Sets implements Model; it reports the layout's physical set count (the
// index function may reach fewer — those sets simply stay cold).
func (c *Cache) Sets() int { return c.layout.Sets() }

// Layout returns the cache's address layout.
func (c *Cache) Layout() addr.Layout { return c.layout }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// Index returns the index function in use.
func (c *Cache) Index() indexing.Func { return c.index }

// Reset implements Model.
func (c *Cache) Reset() {
	clear(c.lines)
	c.newReplacement()
	c.counters = Counters{}
	c.perSet.Reset()
}

// Counters implements Model.
func (c *Cache) Counters() Counters { return c.counters }

// PerSet implements Model.
func (c *Cache) PerSet() PerSet { return c.perSet.Clone() }

// Access implements Model.
func (c *Cache) Access(a trace.Access) AccessResult {
	return c.AccessSet(c.index.Index(a.Addr), a)
}

// AccessSet performs one access in a set the caller chose instead of the
// cache's index function, with Access's bookkeeping.  It is the seam for
// shared caches whose placement depends on more than the address (a
// per-thread index function, a thread's partition); set must lie in
// [0, Sets()).
func (c *Cache) AccessSet(set int, a trace.Access) AccessResult {
	if c.ways == 1 {
		hit, victim := c.StepSet(set, a)
		return dmResult(hit, victim, a.Kind == trace.Write && c.writeThrough)
	}
	res := c.accessSet(set, c.layout.Block(a.Addr), a.Kind == trace.Write)
	c.counters.Add(res)
	c.perSet.record(set, res.Hit)
	return res
}

// StepSet is AccessSet for a direct-mapped cache without materialising
// an AccessResult: it takes the direct-mapped step in set, records it in
// the counters, and returns whether the access hit and the line a fill
// displaced (see Counters.AddStep).  The cache must have one way.
func (c *Cache) StepSet(set int, a trace.Access) (hit bool, victim Line) {
	hit, victim = c.dmStep(&c.lines[set], c.layout.Block(a.Addr), a.Kind == trace.Write)
	c.counters.AddStep(hit, victim)
	c.perSet.record(set, hit)
	return hit, victim
}

// AccessBatch implements BatchAccessor: the same bookkeeping as Access,
// but over a whole batch through concrete (devirtualised) calls.  A
// direct-mapped cache takes dmStep per access with the aggregate counters
// held in a local until the batch ends.
//
//lint:hotpath per-access work in the replay inner loop
func (c *Cache) AccessBatch(batch []trace.Access) {
	if c.ways != 1 {
		for _, a := range batch {
			c.AccessSet(c.index.Index(a.Addr), a)
		}
		return
	}
	ctr := c.counters
	for _, a := range batch {
		set := c.index.Index(a.Addr)
		hit, victim := c.dmStep(&c.lines[set], c.layout.Block(a.Addr), a.Kind == trace.Write)
		ctr.AddStep(hit, victim)
		c.perSet.record(set, hit)
	}
	c.counters = ctr
}

// dmStep is the direct-mapped lookup/fill on ln, the set's only line: a
// miss always replaces it, so no replacement policy is consulted.  It
// reports whether the access hit and returns the line a fill displaced
// (valid only when a resident block was evicted).  A store to a
// write-no-allocate cache that misses leaves the line alone.
func (c *Cache) dmStep(ln *Line, block uint64, store bool) (hit bool, victim Line) {
	dirty := store && !c.writeThrough
	if ln.Valid && ln.Block == block {
		ln.Dirty = ln.Dirty || dirty
		return true, Line{}
	}
	if store && c.noAlloc {
		return false, Line{} // write-no-allocate: the store passes down the hierarchy
	}
	victim = *ln
	*ln = Line{Valid: true, Block: block, Dirty: dirty}
	return false, victim
}

// dmResult expands a dmStep outcome into Access's result.
func dmResult(hit bool, victim Line, wroteThrough bool) AccessResult {
	res := AccessResult{Hit: hit, WroteThrough: wroteThrough}
	if hit {
		res.HitCycles = 1
	}
	if victim.Valid {
		res.Evicted = true
		res.EvictedBlock = victim.Block
		res.Writeback = victim.Dirty
	}
	return res
}

// accessSet performs the lookup/fill within one set of a set-associative
// cache.
func (c *Cache) accessSet(set int, block uint64, store bool) AccessResult {
	lines := c.setLines(set)
	repl := c.replSets[set]
	for w := range lines {
		if lines[w].Valid && lines[w].Block == block {
			repl.Touch(w)
			res := AccessResult{Hit: true, HitCycles: 1}
			if store {
				if c.writeThrough {
					res.WroteThrough = true
				} else {
					lines[w].Dirty = true
				}
			}
			return res
		}
	}
	// Miss.
	res := AccessResult{}
	if store {
		res.WroteThrough = c.writeThrough
	}
	if store && c.noAlloc {
		return res // write-no-allocate: the store passes down the hierarchy
	}
	way := -1
	for w := range lines {
		if !lines[w].Valid {
			way = w
			break
		}
	}
	if way < 0 {
		way = repl.Victim()
		res.Evicted = true
		res.EvictedBlock = lines[way].Block
		res.Writeback = lines[way].Dirty
	}
	lines[way] = Line{Valid: true, Block: block, Dirty: store && !c.writeThrough}
	repl.Fill(way)
	return res
}

// setLines returns set's ways within the flat slab.
func (c *Cache) setLines(set int) []Line {
	lo := set * c.ways
	return c.lines[lo : lo+c.ways : lo+c.ways]
}

// Lookup reports whether the block containing a is resident, without
// touching replacement state or counters (a probe, not an access).
func (c *Cache) Lookup(a addr.Addr) bool {
	set := c.index.Index(a)
	block := c.layout.Block(a)
	for _, ln := range c.setLines(set) {
		if ln.Valid && ln.Block == block {
			return true
		}
	}
	return false
}

// Utilization returns the fraction of lines currently valid.
func (c *Cache) Utilization() float64 {
	valid := 0
	for _, ln := range c.lines {
		if ln.Valid {
			valid++
		}
	}
	return float64(valid) / float64(len(c.lines))
}
