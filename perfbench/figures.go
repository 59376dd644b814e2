package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"cacheuniformity/internal/core"
	"cacheuniformity/internal/experiments"
	"cacheuniformity/internal/report"
	"cacheuniformity/internal/trace"
	"cacheuniformity/internal/workload"
)

// render is a table's full-precision identity: %v prints every float
// with the shortest representation that round-trips.
func render(t *report.Table) []byte {
	return []byte(fmt.Sprintf("%+v", *t))
}

// fetchLog is a trace source that declines every fetch, so the engines
// take the generator path, while it records which traces were asked
// for: exactly the ones set-up must compile for the pass.
type fetchLog struct {
	mu   sync.Mutex
	seen map[string]bool
	want []fetch
}

type fetch struct {
	cfg  core.Config
	spec workload.Spec
}

func (l *fetchLog) CompiledTrace(_ context.Context, cfg core.Config, bench workload.Spec) (*trace.Compiled, error) {
	key := fmt.Sprintf("%s/%d/%d", bench.Key, cfg.Seed, cfg.TraceLength)
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.seen[key] {
		l.seen[key] = true
		l.want = append(l.want, fetch{cfg, bench})
	}
	return nil, nil
}

// regenerate runs every figure and renders its table.
func regenerate(ctx context.Context, figs []experiments.Figure, cfg core.Config) ([][]byte, error) {
	out := make([][]byte, len(figs))
	for i, f := range figs {
		tbl, err := f.Run(ctx, cfg)
		if err != nil {
			return nil, fmt.Errorf("figure %d: %w", f.ID, err)
		}
		out[i] = render(tbl)
	}
	return out, nil
}

// runFigures: set-up regenerates all figures through the generator path
// (the reference tables) and compiles every trace the figures fetch into
// a MemTraceCache; the pass regenerates all figures from the compiled
// traces, at least twice and until --seconds have elapsed, and every
// table must equal its reference byte for byte.
func runFigures(o options, rec *recorder, rep *results, scratch string) error {
	ctx := context.Background()
	cfg := core.Default()
	cfg.Seed += o.seed
	cfg.TraceLength = o.sizes.figLength
	figs := experiments.All()

	var (
		p    passStats
		refs [][]byte
		mc   *core.MemTraceCache
	)
	for r := 0; r < o.sizes.figSetupReps; r++ {
		t0 := time.Now()
		log := &fetchLog{seen: map[string]bool{}}
		gen := cfg
		gen.Traces = log
		tables, err := regenerate(ctx, figs, gen)
		if err != nil {
			return err
		}
		mc = core.NewMemTraceCache(0)
		for _, f := range log.want {
			if _, err := mc.CompiledTrace(ctx, f.cfg, f.spec); err != nil {
				return err
			}
		}
		p.setup = append(p.setup, time.Since(t0).Seconds())
		if refs == nil {
			refs = tables
			continue
		}
		for i := range tables {
			if !bytes.Equal(tables[i], refs[i]) {
				return fmt.Errorf("figure %d: generator path is not deterministic across set-ups", figs[i].ID)
			}
		}
	}
	if o.corruptRef {
		refs[0] = append(refs[0], '!')
	}
	compiles0, _ := mc.Stats()

	pcfg := cfg
	memo := &memoProbe{rec: rec}
	traces := &traceProbe{src: mc, rec: rec}
	pcfg.Traces = mc
	if rec != nil {
		pcfg.Memo, pcfg.Traces = memo, traces
	}
	// The pass makes two or more regenerations, as the machine's speed
	// allows; the tail quantile is fixed at the one that leaves 10 of two
	// regenerations' tables beyond it, so every run reports the same one.
	p.tailQ = 1 - 10.5/float64(2*len(figs))
	figSeconds := make([]float64, len(figs))
	heap := startHeapSampler()
	start := time.Now()
	deadline := start.Add(time.Duration(o.seconds * float64(time.Second)))
	for len(p.rounds) < 2 || time.Now().Before(deadline) {
		r0 := time.Now()
		for i, f := range figs {
			fctx, end := rec.start(ctx, "figure")
			t0 := time.Now()
			tbl, err := f.Run(fctx, pcfg)
			d := time.Since(t0)
			end()
			figSeconds[i] += d.Seconds()
			p.ops++
			p.lat = append(p.lat, millis(d))
			switch {
			case err != nil:
				p.failed++
				fmt.Fprintf(os.Stderr, "perfbench: figure %d: %v\n", f.ID, err)
			case !bytes.Equal(render(tbl), refs[i]):
				p.failed++
				fmt.Fprintf(os.Stderr, "perfbench: figure %d: table differs from the generator-path reference\n", f.ID)
			}
		}
		p.rounds = append(p.rounds, time.Since(r0).Seconds())
	}
	p.seconds = time.Since(start).Seconds()
	p.heapMB, p.gcNote = heap.stopMB()
	rep.attempted, rep.failed = p.ops, p.failed

	if rec == nil {
		p.publish(rep, "", "figure")
		return nil
	}
	p.publish(rep, "traced.", "figure")
	passes := float64(len(p.rounds))
	for i, f := range figs {
		rep.set(fmt.Sprintf("fig.%02d_s", f.ID), figSeconds[i]/passes, "mean per pass over %d passes", len(p.rounds))
	}
	rep.set("core.grid_s", float64(memo.ns.Load())/1e9/passes, "seconds per pass inside core.Grid and core.RunOne")
	rep.set("core.grid_calls", float64(memo.calls.Load())/passes, "per pass")
	rep.set("trace.fetches", float64(traces.fetches.Load())/passes, "compiled-trace fetches per pass")
	compiles1, _ := mc.Stats()
	rep.set("trace.compiles", float64(compiles1-compiles0), "compilations during the pass (set-up compiled %d)", compiles0)

	var in probeInput
	in.cfg, in.scratch = cfg, scratch
	for _, name := range workload.MiBenchOrder[:2] {
		spec, err := workload.Lookup(name)
		if err != nil {
			return err
		}
		ct, err := mc.CompiledTrace(ctx, cfg, spec)
		if err != nil {
			return err
		}
		in.specs = append(in.specs, probeSpec{spec: spec, seed: cfg.Seed, length: cfg.TraceLength})
		in.traces = append(in.traces, ct)
	}
	for i, s := range []string{"baseline", "xor", "adaptive", "two_way"} {
		in.cells = append(in.cells, newCell(i, s, workload.MiBenchOrder[i%2], cfg.Seed, cfg.TraceLength, i%2 == 0))
	}
	return runProbes(ctx, in, rep)
}
