package cache

import (
	"errors"
	"io"

	"cacheuniformity/internal/trace"
)

// Windowed-exact sharded replay for direct-mapped caches.
//
// A direct-mapped, write-back, write-allocate cache with a pure index
// function has per-set state of exactly one line, and sets never interact.
// Replaying a *segment* of the trace against an empty scratch cache
// resolves every access exactly — except, per set, the segment's first
// access to that set, whose hit/miss outcome depends on the line the
// previous segments left behind.  The protocol therefore has two phases:
//
//  1. Scratch (parallelisable per segment): replay the segment into a
//     DMScratch, counting everything after each set's first touch and
//     recording the first touch itself (block, store) plus what later
//     happened to the residency it started ("residency 0"): evicted
//     within the segment (and locally clean or dirty at that point), or
//     still resident at segment end.
//  2. Stitch (serial, in segment order): resolve each recorded first
//     touch against the authoritative line state — hit when the prior
//     segment left the same block resident, miss (with the prior line's
//     eviction and writeback) otherwise.  A load that hits a dirty prior
//     line carries that dirt into residency 0, which the scratch pass
//     modelled as clean: the stitch adds the missing writeback if that
//     residency was evicted locally clean, or re-marks the final line
//     dirty if it survived the segment.  Finally the scratch's per-set
//     end state becomes the new authoritative state.
//
// Every counter is either a pure per-segment sum (accesses — the
// stateless per-set counts — plus all post-first-touch events) or is
// resolved exactly at a boundary, so the merged counters, per-set counts
// and final line states are byte-identical to serial replay.  The only
// state not reconstructed is the replacement policy's, which is
// informationless at associativity 1 — the reason this engine accepts
// direct-mapped caches only.

// ShardReplayable reports whether m qualifies for the windowed-exact
// sharded replay: a direct-mapped, write-back, write-allocate *Cache.
// The planner combines this structural check with the registry's
// per-kind Shardable capability.
func ShardReplayable(m Model) (*Cache, bool) {
	c, ok := m.(*Cache)
	if !ok || c.ways != 1 || c.writeThrough || c.noAlloc {
		return nil, false
	}
	return c, true
}

// DMScratch is the per-segment scratch state of the sharded replay.  It
// is sized for one cache's set count and reusable via Reset.
type DMScratch struct {
	counters Counters
	perSet   PerSet
	lines    []Line // segment-local final line per set

	touched        []bool
	firstBlock     []uint64
	firstStore     []bool
	curIsRes0      []bool // the resident line is still residency 0
	res0Evicted    []bool // residency 0 was evicted within the segment
	res0EvictDirty []bool // ...and was locally dirty at that eviction
	touchedSets    []int32
}

// NewDMScratch allocates scratch state for replaying segments against c.
func (c *Cache) NewDMScratch() *DMScratch {
	n := c.layout.Sets()
	return &DMScratch{
		perSet:         NewPerSet(n),
		lines:          make([]Line, n),
		touched:        make([]bool, n),
		firstBlock:     make([]uint64, n),
		firstStore:     make([]bool, n),
		curIsRes0:      make([]bool, n),
		res0Evicted:    make([]bool, n),
		res0EvictDirty: make([]bool, n),
		touchedSets:    make([]int32, 0, n),
	}
}

// Reset clears the scratch for the next segment.
func (s *DMScratch) Reset() {
	s.counters = Counters{}
	for _, set := range s.touchedSets {
		s.perSet.Accesses[set] = 0
		s.perSet.Hits[set] = 0
		s.perSet.Misses[set] = 0
		s.lines[set] = Line{}
		s.touched[set] = false
		s.curIsRes0[set] = false
		s.res0Evicted[set] = false
		s.res0EvictDirty[set] = false
	}
	s.touchedSets = s.touchedSets[:0]
}

// ReplaySegmentScratch replays one segment's stream into the scratch.
// The reader is always released.  The cache itself is read-only here
// (index function and layout), so scratch replays of different segments
// may run concurrently against the same cache.
func (c *Cache) ReplaySegmentScratch(r trace.BatchReader, buf []trace.Access, s *DMScratch) error {
	defer trace.CloseBatch(r)
	if len(buf) == 0 {
		buf = make([]trace.Access, trace.DefaultBatch)
	}
	idx := c.index
	lay := c.layout
	for {
		n, err := r.ReadBatch(buf)
		//lint:hotpath sharded replay's per-access scratch loop
		for _, a := range buf[:n] {
			set := idx.Index(a.Addr)
			block := lay.Block(a.Addr)
			store := a.Kind == trace.Write
			s.counters.Accesses++
			s.perSet.Accesses[set]++
			if !s.touched[set] {
				s.touched[set] = true
				s.firstBlock[set] = block
				s.firstStore[set] = store
				s.curIsRes0[set] = true
				s.lines[set] = Line{Valid: true, Block: block, Dirty: store}
				s.touchedSets = append(s.touchedSets, int32(set))
				continue // hit/miss/eviction resolved at the stitch
			}
			ln := &s.lines[set]
			if ln.Block == block {
				s.counters.Hits++
				s.counters.PrimaryHits++
				s.perSet.Hits[set]++
				if store {
					ln.Dirty = true
				}
				continue
			}
			s.counters.Misses++
			s.perSet.Misses[set]++
			s.counters.Evictions++
			if ln.Dirty {
				s.counters.Writebacks++
			}
			if s.curIsRes0[set] {
				s.res0Evicted[set] = true
				s.res0EvictDirty[set] = ln.Dirty
				s.curIsRes0[set] = false
			}
			*ln = Line{Valid: true, Block: block, Dirty: store}
		}
		if n == 0 {
			if err == nil || errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
	}
}

// StitchSegment merges one segment's scratch into the live cache,
// resolving the per-set first touches against the authoritative line
// state.  Segments must be stitched serially in trace order; the merge
// loop touches only the sets the segment accessed.
func (c *Cache) StitchSegment(s *DMScratch) {
	c.counters.Accesses += s.counters.Accesses
	c.counters.Hits += s.counters.Hits
	c.counters.PrimaryHits += s.counters.PrimaryHits
	c.counters.Misses += s.counters.Misses
	c.counters.Evictions += s.counters.Evictions
	c.counters.Writebacks += s.counters.Writebacks
	//lint:hotpath boundary merge loop of the sharded replay
	for _, set32 := range s.touchedSets {
		set := int(set32)
		c.perSet.Accesses[set] += s.perSet.Accesses[set]
		c.perSet.Hits[set] += s.perSet.Hits[set]
		c.perSet.Misses[set] += s.perSet.Misses[set]

		prior := c.lines[set]
		carried := false
		if prior.Valid && prior.Block == s.firstBlock[set] {
			c.counters.Hits++
			c.counters.PrimaryHits++
			c.perSet.Hits[set]++
			carried = prior.Dirty
		} else {
			c.counters.Misses++
			c.perSet.Misses[set]++
			if prior.Valid {
				c.counters.Evictions++
				if prior.Dirty {
					c.counters.Writebacks++
				}
			}
		}
		if carried && s.res0Evicted[set] && !s.res0EvictDirty[set] {
			// Residency 0 inherited the prior line's dirt, was modelled
			// clean locally, and left the cache without a writeback: the
			// stitch owes one.
			c.counters.Writebacks++
		}
		final := s.lines[set]
		if carried && s.curIsRes0[set] {
			final.Dirty = true
		}
		c.lines[set] = final
	}
}
