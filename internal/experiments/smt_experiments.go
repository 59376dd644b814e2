package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"cacheuniformity/internal/addr"
	"cacheuniformity/internal/assoc"
	"cacheuniformity/internal/cache"
	"cacheuniformity/internal/core"
	"cacheuniformity/internal/hier"
	"cacheuniformity/internal/indexing"
	"cacheuniformity/internal/report"
	"cacheuniformity/internal/smt"
	"cacheuniformity/internal/stats"
	"cacheuniformity/internal/trace"
	"cacheuniformity/internal/workload"
)

// mixStream interleaves the mix's benchmarks round-robin, one hardware
// thread per benchmark, with per-thread seeds derived from cfg.Seed.
// Every thread contributes cfg.TraceLength accesses.
func mixStream(ctx context.Context, cfg core.Config, mix []string) (trace.BatchReader, error) {
	specs := make([]workload.Spec, len(mix))
	for i, name := range mix {
		spec, err := workload.Lookup(name)
		if err != nil {
			return nil, err
		}
		specs[i] = spec
	}
	// Every name resolved: only now start the generator pumps.
	rs := make([]trace.BatchReader, len(specs))
	for i, spec := range specs {
		rs[i] = spec.StreamCtx(ctx, cfg.Seed+uint64(i), cfg.TraceLength)
	}
	return trace.RoundRobinBatch(rs...), nil
}

// replayMixes is the SMT figures' fan-out: each mix's interleaved stream
// is generated once and broadcast to every model build returns for that
// mix on cfg.Layout, and the mixes run on up to cfg.Parallelism workers (0 means
// GOMAXPROCS).  out[i] holds mix i's models after their replay.  A mix
// whose models cannot be built, whose stream fails or whose model fails or
// panics (a *trace.SinkPanicError) fails the figure with the first such
// error in mix order; cancelling ctx stops every replay within one batch
// and returns the context's error.
func replayMixes(ctx context.Context, cfg core.Config, mixes [][]string, build func(l addr.Layout, mix []string) ([]cache.Model, error)) ([][]cache.Model, error) {
	out := make([][]cache.Model, len(mixes))
	errs := make([]error, len(mixes))
	n := cfg.Parallelism
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	n = min(n, len(mixes))
	next := make(chan int)
	var workers sync.WaitGroup
	for w := 0; w < n; w++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			buf := make([]trace.Access, trace.DefaultBatch) // reused across this worker's mixes
			for i := range next {
				out[i], errs[i] = replayMix(ctx, cfg, mixes[i], build, buf)
			}
		}()
	}
	// Never block on a send once the run is cancelled: workers that
	// already returned would leave the producer stuck.
feed:
	for i := range mixes {
		select {
		case next <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(next)
	workers.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// replayMix builds one mix's models and broadcasts its stream to them.
func replayMix(ctx context.Context, cfg core.Config, mix []string, build func(l addr.Layout, mix []string) ([]cache.Model, error), buf []trace.Access) ([]cache.Model, error) {
	models, err := build(cfg.Layout, mix)
	if err != nil {
		return nil, err
	}
	r, err := mixStream(ctx, cfg, mix)
	if err != nil {
		return nil, err
	}
	sinks := make([]trace.BatchSink, len(models))
	for i, m := range models {
		sinks[i] = cache.NewSink(m)
	}
	_, serrs, err := trace.Broadcast(ctx, r, buf, sinks...)
	if err != nil {
		return nil, err
	}
	for i, serr := range serrs {
		if serr != nil {
			return nil, fmt.Errorf("experiments: mix %s: model %s: %w", MixLabel(mix), models[i].Name(), serr)
		}
	}
	return models, nil
}

// Figure13 compares a shared direct-mapped L1 where all threads use
// conventional indexing against one where each thread uses a different
// odd multiplier (9, 21, 31, 61 — the paper's recommended set).
func Figure13(ctx context.Context, cfg core.Config) (*report.Table, error) {
	cfgN := normalizeCfg(cfg)
	models, err := replayMixes(ctx, cfgN, ThreadMixes13, figure13Models)
	if err != nil {
		return nil, err
	}
	tbl := report.NewTable(
		"Figure 13: % reduction in miss rate with per-thread odd-multiplier indexing",
		"thread_mix", []string{"multi_index"})
	for i, mix := range ThreadMixes13 {
		bc, mc := models[i][0].Counters(), models[i][1].Counters()
		tbl.MustAddRow(MixLabel(mix), []float64{stats.PercentReduction(bc.MissRate(), mc.MissRate())})
	}
	tbl.AddAverageRow("Average")
	return tbl, nil
}

// figure13Models builds one mix's pair: shared caches with conventional
// indexing for every thread, and with a distinct odd multiplier each.
func figure13Models(layout addr.Layout, mix []string) ([]cache.Model, error) {
	baseFuncs := make([]indexing.Func, len(mix))
	mixedFuncs := make([]indexing.Func, len(mix))
	for i := range mix {
		baseFuncs[i] = indexing.NewModulo(layout)
		p := indexing.RecommendedMultipliers[i%len(indexing.RecommendedMultipliers)]
		om, err := indexing.NewOddMultiplier(layout, p)
		if err != nil {
			return nil, err
		}
		mixedFuncs[i] = om
	}
	base, err := smt.NewSharedIndexCache(layout, baseFuncs)
	if err != nil {
		return nil, err
	}
	mixed, err := smt.NewSharedIndexCache(layout, mixedFuncs)
	if err != nil {
		return nil, err
	}
	return []cache.Model{base, mixed}, nil
}

// Figure14 compares the statically partitioned shared L1 against the
// adaptive partitioned scheme (partitions + shared SHT/OUT), reporting
// the % improvement in AMAT.  The partitioned baseline uses the textbook
// AMAT; the adaptive scheme uses Eq. 8.
func Figure14(ctx context.Context, cfg core.Config) (*report.Table, error) {
	cfgN := normalizeCfg(cfg)
	models, err := replayMixes(ctx, cfgN, ThreadMixes14, figure14Models)
	if err != nil {
		return nil, err
	}
	tbl := report.NewTable(
		"Figure 14: % improvement in AMAT, adaptive partitioned scheme",
		"thread_mix", []string{"adaptive_partitioned"})
	for i, mix := range ThreadMixes14 {
		pc, ac := models[i][0].Counters(), models[i][1].Counters()
		baseAMAT := hier.AMATSimple(pc, hier.DefaultLatencies, cfgN.MissPenalty)
		adaptAMAT := hier.AMATAdaptive(ac, cfgN.MissPenalty)
		tbl.MustAddRow(MixLabel(mix), []float64{stats.PercentReduction(baseAMAT, adaptAMAT)})
	}
	tbl.AddAverageRow("Average")
	return tbl, nil
}

// figure14Models builds one mix's pair: the statically partitioned cache
// and the adaptive partitioned scheme, one partition per thread.
func figure14Models(layout addr.Layout, mix []string) ([]cache.Model, error) {
	threads := len(mix)
	if layout.Sets()%threads != 0 {
		return nil, fmt.Errorf("experiments: %d threads do not divide %d sets", threads, layout.Sets())
	}
	part, err := smt.NewPartitionedCache(layout, threads)
	if err != nil {
		return nil, err
	}
	ap, err := smt.NewAdaptivePartitioned(layout, threads, assoc.AdaptiveConfig{})
	if err != nil {
		return nil, err
	}
	return []cache.Model{part, ap}, nil
}
