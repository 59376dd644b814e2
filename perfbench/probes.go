package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"cacheuniformity/internal/addr"
	"cacheuniformity/internal/cache"
	"cacheuniformity/internal/core"
	"cacheuniformity/internal/indexing"
	"cacheuniformity/internal/registry"
	"cacheuniformity/internal/report"
	"cacheuniformity/internal/resultstore"
	"cacheuniformity/internal/server"
	"cacheuniformity/internal/trace"
)

// probeReps repeats each timed probe; the median is reported.
const probeReps = 3

// indexSink keeps the indexing probe's calls from being optimised away.
var indexSink int

// runProbes times each layer's public functions on the workload's own
// traces and cells, outside the pass.  A call that fails inside a timed
// loop panics, and the panic is returned here as the probe's error.
func runProbes(ctx context.Context, in probeInput, rep *results) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("probe: %v", r)
		}
	}()
	l := in.cfg.Layout
	var accesses int
	for _, ct := range in.traces {
		accesses += ct.Len()
	}
	perAccess := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(accesses) }
	buf := make([]trace.Access, trace.DefaultBatch)

	// trace / workload
	rep.set("workload.generate_ns_per_access", perAccess(medianTime(func() {
		for _, s := range in.specs {
			drain(s.spec.Stream(s.seed, s.length), buf, nil)
		}
	})), "generator pump over %d accesses", accesses)
	rep.set("trace.compile_ns_per_access", perAccess(medianTime(func() {
		for _, s := range in.specs {
			if _, err := trace.Compile(s.spec.Stream(s.seed, s.length), 0); err != nil {
				panic(err)
			}
		}
	})), "trace.Compile of the generator stream")
	decode := func() {
		for _, ct := range in.traces {
			drain(ct.Reader(), buf, nil)
		}
	}
	rep.set("trace.decode_ns_per_access", perAccess(medianTime(decode)), "Reader().ReadBatch over %d compiled traces", len(in.traces))
	a0 := allocCount()
	decode()
	rep.set("trace.decode_allocs", float64(allocCount()-a0)/float64(len(in.traces)), "per decoded trace")

	// indexing
	var addrs []addr.Addr
	for _, ct := range in.traces {
		drain(ct.Reader(), buf, func(batch []trace.Access) {
			for _, a := range batch {
				addrs = append(addrs, a.Addr)
			}
		})
	}
	funcs, err := indexFuncs(l, in.traces[0])
	if err != nil {
		return err
	}
	for i, f := range funcs {
		d := medianTime(func() {
			for _, a := range addrs {
				indexSink += f.Index(a)
			}
		})
		rep.set("indexing."+indexKinds[i]+"_ns_per_access", perAccess(d), "%s.Index over %d decoded addresses", f.Name(), len(addrs))
	}

	// cache models: replay every trace into a fresh model per scheme
	var allocs uint64
	for _, sc := range core.Schemes() {
		var total time.Duration
		for _, ct := range in.traces {
			m, err := sc.Build(l, ct.Stream())
			if err != nil {
				return fmt.Errorf("build %s: %w", sc.Name, err)
			}
			a0 := allocCount()
			t0 := time.Now()
			if _, err := cache.RunBatched(m, ct.Reader(), buf); err != nil {
				return fmt.Errorf("replay %s: %w", sc.Name, err)
			}
			total += time.Since(t0)
			allocs += allocCount() - a0
		}
		rep.set("model."+sc.Name+"_ns_per_access", perAccess(total), "RunBatched into a fresh model")
	}
	rep.set("model.allocs_per_maccess", float64(allocs)/(float64(accesses)*float64(len(core.Schemes()))/1e6),
		"allocations per million replayed accesses, %d schemes", len(core.Schemes()))

	// registry and store keys
	iters := 2000
	rep.set("registry.resolve_us", perOp(iters, func(i int) {
		c := in.cells[i%len(in.cells)]
		if _, err := registry.ResolveScheme(registry.Decl{Name: c.scheme}); err != nil {
			panic(err)
		}
		if _, _, err := registry.ResolveWorkload(registry.Decl{Name: c.bench}); err != nil {
			panic(err)
		}
	}), "ResolveScheme + ResolveWorkload, %d cells", len(in.cells))
	rep.set("store.key_us", perOp(iters, func(i int) {
		c := in.cells[i%len(in.cells)]
		if _, err := resultstore.CellKeyDecl(c.config(in.cfg), registry.Decl{Name: c.scheme}, registry.Decl{Name: c.bench}, resultstore.CodeVersion); err != nil {
			panic(err)
		}
	}), "CellKeyDecl")

	if err := probeStore(ctx, in, rep); err != nil {
		return err
	}
	return probeStitch(ctx, in, rep)
}

// probeStore times the store tiers, the response encoding and the whole
// handler on the workload's cells: the first CellDecl of each cell is a
// miss, the next ones memory hits; a reopen with the memory tier off
// makes every lookup a disk hit.
func probeStore(ctx context.Context, in probeInput, rep *results) error {
	dir, err := os.MkdirTemp(in.scratch, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := resultstore.Open(resultstore.Options{Dir: dir, CompileTraces: true})
	if err != nil {
		return err
	}
	cells := in.cells
	cellDecl := func(s *resultstore.Store, c *cell) (core.Result, resultstore.Origin) {
		res, origin, err := s.CellDecl(ctx, c.config(in.cfg), registry.Decl{Name: c.scheme}, registry.Decl{Name: c.bench})
		if err != nil {
			panic(fmt.Sprintf("%s: %v", c.label(), err))
		}
		return res, origin
	}
	results := make([]core.Result, len(cells))
	t0 := time.Now()
	for i, c := range cells {
		results[i], _ = cellDecl(st, c)
	}
	rep.set("store.miss_ms", millis(time.Since(t0))/float64(len(cells)), "CellDecl of %d never-seen cells", len(cells))

	iters := 2000
	rep.set("store.mem_hit_us", perOp(iters, func(i int) { cellDecl(st, cells[i%len(cells)]) }), "CellDecl on a resident cell")
	rep.set("store.mem_hit_allocs", allocsPerOp(iters, func(i int) { cellDecl(st, cells[i%len(cells)]) }), "per CellDecl")

	diskDir, diskCells := dir, cells
	if in.diskDir != "" {
		diskDir = in.diskDir
	}
	cold, err := resultstore.Open(resultstore.Options{Dir: diskDir, MemoryEntries: -1, CompileTraces: true})
	if err != nil {
		return err
	}
	diskIters := 300
	if _, origin := cellDecl(cold, diskCells[0]); origin != resultstore.OriginDisk {
		return fmt.Errorf("disk probe: %s served from %q, want disk", diskCells[0].label(), origin)
	}
	rep.set("store.disk_hit_us", perOp(diskIters, func(i int) { cellDecl(cold, diskCells[i%len(diskCells)]) }), "CellDecl, memory tier off, dir %s", filepath.Base(diskDir))
	rep.set("store.disk_hit_allocs", allocsPerOp(diskIters, func(i int) { cellDecl(cold, diskCells[i%len(diskCells)]) }), "per CellDecl")

	// report: the canonical encoding of a response body like simd's
	for _, perSet := range []bool{false, true} {
		body, err := responseBody(results[0], perSet)
		if err != nil {
			return err
		}
		name := "report.encode_us"
		if perSet {
			name = "report.encode_perset_us"
		}
		n := 0
		us := perOp(iters/4, func(int) {
			b, err := report.CanonicalJSONIndent(body, "  ")
			if err != nil {
				panic(err)
			}
			n = len(b)
		})
		rep.set(name, us, "CanonicalJSONIndent of a %d-byte cell response", n)
	}

	// server: the whole handler, no socket
	srv, err := server.New(server.Config{Store: st, Sim: core.Default()})
	if err != nil {
		return err
	}
	h := srv.Handler()
	serve := func(i int) {
		c := cells[i%len(cells)]
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/cell", bytes.NewReader(c.body)))
		if w.Code != http.StatusOK {
			panic(fmt.Sprintf("%s: status %d", c.label(), w.Code))
		}
	}
	rep.set("server.handle_us", perOp(iters/2, serve), "Handler().ServeHTTP, memory hits, %d cells (every 4th with per-set arrays)", len(cells))
	rep.set("server.handle_allocs", allocsPerOp(iters/2, serve), "per request")
	return nil
}

// responseBody mirrors simd's cell response envelope for a result.
func responseBody(res core.Result, perSet bool) (any, error) {
	type resultJSON struct {
		core.Result
		Err    string          `json:"Err,omitempty"`
		PerSet json.RawMessage `json:"PerSet,omitempty"`
	}
	r := resultJSON{Result: res}
	if perSet {
		raw, err := json.Marshal(res.PerSet)
		if err != nil {
			return nil, err
		}
		r.PerSet = raw
	}
	return struct {
		Scheme    string     `json:"scheme"`
		Benchmark string     `json:"benchmark"`
		Key       string     `json:"key"`
		Origin    string     `json:"origin"`
		ElapsedNs int64      `json:"elapsed_ns"`
		Result    resultJSON `json:"result"`
	}{res.Scheme, res.Benchmark, "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef", "memory", 1234, r}, nil
}

// probeStitch times core.Grid on one benchmark across the shardable
// direct-mapped schemes, serially and with two workers, from compiled
// traces.
func probeStitch(ctx context.Context, in probeInput, rep *results) error {
	var schemes []string
	for _, s := range core.Schemes() {
		if s.Shardable {
			schemes = append(schemes, s.Name)
		}
	}
	c := in.cells[0]
	cfg := c.config(in.cfg)
	cfg.Traces = core.NewMemTraceCache(0)
	for _, par := range []int{1, 2} {
		cfg.Parallelism = par
		if _, err := core.Grid(ctx, cfg, schemes, []string{c.bench}); err != nil {
			return err
		}
		d := medianTime(func() {
			if _, err := core.Grid(ctx, cfg, schemes, []string{c.bench}); err != nil {
				panic(err)
			}
		})
		name := "core.grid1_serial_ms"
		if par == 2 {
			name = "core.grid1_sharded_ms"
		}
		rep.set(name, millis(d), "Grid(%d shardable schemes x %s, %d accesses), Parallelism %d", len(schemes), c.bench, cfg.TraceLength, par)
	}
	return nil
}

// indexFuncs builds indexKinds' functions; the profile-driven ones
// profile the first trace.
func indexFuncs(l addr.Layout, ct *trace.Compiled) ([]indexing.Func, error) {
	odd, err1 := indexing.NewOddMultiplier(l, 21)
	giv, err2 := indexing.NewGivargisStream(ct.Reader(), l, indexing.GivargisConfig{})
	gx, err3 := indexing.NewGivargisXORStream(ct.Reader(), l, indexing.GivargisConfig{})
	poly, err4 := indexing.NewPolynomial(l)
	sb, err5 := indexing.NewSandyBridge(l, 4)
	if err := errors.Join(err1, err2, err3, err4, err5); err != nil {
		return nil, err
	}
	return []indexing.Func{indexing.NewModulo(l), indexing.NewXOR(l), odd, indexing.NewPrimeModulo(l), giv, gx, poly, sb}, nil
}

// drain reads r to the end, handing each batch to f (nil discards it).
func drain(r trace.BatchReader, buf []trace.Access, f func([]trace.Access)) {
	for {
		n, err := r.ReadBatch(buf)
		if n > 0 {
			if f != nil {
				f(buf[:n])
			}
			continue
		}
		if errors.Is(err, io.EOF) {
			return
		}
		panic(fmt.Sprintf("read trace: %v", err))
	}
}

// medianTime runs f probeReps times and returns the median duration.
func medianTime(f func()) time.Duration {
	ds := make([]float64, probeReps)
	for i := range ds {
		t0 := time.Now()
		f()
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds))
}

// perOp is the median over probeReps of the mean µs per call of f.
func perOp(n int, f func(i int)) float64 {
	return float64(medianTime(func() {
		for i := 0; i < n; i++ {
			f(i)
		}
	}).Nanoseconds()) / 1e3 / float64(n)
}

// allocsPerOp is the heap allocations per call of f.
func allocsPerOp(n int, f func(i int)) float64 {
	a0 := allocCount()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(allocCount()-a0) / float64(n)
}
