package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"cacheuniformity/internal/cache"
	"cacheuniformity/internal/core"
	"cacheuniformity/internal/registry"
)

// checker verifies responses against references computed by core
// directly, outside the store and server.  A body that matched is
// remembered with its origin; a later body that differs from it only in
// the elapsed_ns value carries the same result, so a repeat costs two
// byte scans instead of a decode.
type checker struct {
	base core.Config
	mu   sync.Mutex
	refs map[int]core.Result
	ok   map[int][]verified
}

// verified is a response body that matched its reference.
type verified struct {
	body   []byte
	origin string
}

// maxVerified bounds the bodies remembered per cell: one per origin.
const maxVerified = 4

func newChecker(base core.Config) *checker {
	return &checker{base: base, refs: map[int]core.Result{}, ok: map[int][]verified{}}
}

// reference computes the cells' references, clients at a time.
func (ch *checker) reference(ctx context.Context, cells []*cell) error {
	var (
		wg   sync.WaitGroup
		next atomic.Int64
		errs = make([]error, clients)
	)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(cells) || errs[w] != nil {
					return
				}
				c := cells[i]
				sc, err := registry.ResolveScheme(registry.Decl{Name: c.scheme})
				if err != nil {
					errs[w] = err
					return
				}
				spec, _, err := registry.ResolveWorkload(registry.Decl{Name: c.bench})
				if err != nil {
					errs[w] = err
					return
				}
				res, err := core.RunOneOf(ctx, c.config(ch.base), sc, spec)
				if err != nil {
					errs[w] = fmt.Errorf("%s: %w", c.label(), err)
					return
				}
				ch.mu.Lock()
				ch.refs[c.id] = res
				ch.mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// reply is the part of a /v1/cell response the checker reads.
type reply struct {
	Origin string          `json:"origin"`
	Result json.RawMessage `json:"result"`
}

type replyResult struct {
	Benchmark string
	Scheme    string
	Counters  cache.Counters
	MissRate  float64
	AMAT      float64
	PerSet    *cache.PerSet
	Err       string
}

// check compares a 200 body with the cell's reference: names, counters,
// miss rate, AMAT, and the per-set arrays when the cell asked for them.
func (ch *checker) check(c *cell, body []byte) (origin string, err error) {
	ch.mu.Lock()
	seen := ch.ok[c.id]
	ref, haveRef := ch.refs[c.id]
	ch.mu.Unlock()
	for _, v := range seen {
		if sameButElapsed(v.body, body) {
			return v.origin, nil
		}
	}
	var rp reply
	if err := json.Unmarshal(body, &rp); err != nil {
		return "", fmt.Errorf("decode: %w", err)
	}
	if !haveRef {
		return rp.Origin, errors.New("no reference")
	}
	var got replyResult
	if err := json.Unmarshal(rp.Result, &got); err != nil {
		return rp.Origin, fmt.Errorf("decode result: %w", err)
	}
	switch {
	case got.Err != "":
		return rp.Origin, fmt.Errorf("result error %q", got.Err)
	case got.Scheme != ref.Scheme || got.Benchmark != ref.Benchmark:
		return rp.Origin, fmt.Errorf("names %s/%s, want %s/%s", got.Scheme, got.Benchmark, ref.Scheme, ref.Benchmark)
	case got.Counters != ref.Counters:
		return rp.Origin, fmt.Errorf("counters %+v, want %+v", got.Counters, ref.Counters)
	case got.MissRate != ref.MissRate || got.AMAT != ref.AMAT:
		return rp.Origin, fmt.Errorf("miss rate %v AMAT %v, want %v %v", got.MissRate, got.AMAT, ref.MissRate, ref.AMAT)
	case c.perSet != (got.PerSet != nil):
		return rp.Origin, fmt.Errorf("per-set arrays present %t, want %t", got.PerSet != nil, c.perSet)
	case c.perSet && !(slices.Equal(got.PerSet.Accesses, ref.PerSet.Accesses) &&
		slices.Equal(got.PerSet.Hits, ref.PerSet.Hits) && slices.Equal(got.PerSet.Misses, ref.PerSet.Misses)):
		return rp.Origin, errors.New("per-set arrays differ")
	}
	ch.mu.Lock()
	if len(ch.ok[c.id]) < maxVerified {
		ch.ok[c.id] = append(ch.ok[c.id], verified{append([]byte(nil), body...), rp.Origin})
	}
	ch.mu.Unlock()
	return rp.Origin, nil
}

// sameButElapsed reports whether a and b are byte-identical except for
// the digits of one number, the value of the "elapsed_ns" member — the
// one field of a cell response that varies between identical answers.
func sameButElapsed(a, b []byte) bool {
	n := min(len(a), len(b))
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	if i == len(a) && i == len(b) {
		return true
	}
	s := 0
	for s < n-i && a[len(a)-1-s] == b[len(b)-1-s] {
		s++
	}
	if !digits(a[i:len(a)-s]) || !digits(b[i:len(b)-s]) {
		return false
	}
	for i > 0 && digits(a[i-1:i]) {
		i--
	}
	return bytes.HasSuffix(bytes.TrimRight(a[:i], " \t\r\n:"), []byte(`"elapsed_ns"`))
}

func digits(b []byte) bool {
	for _, c := range b {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}
