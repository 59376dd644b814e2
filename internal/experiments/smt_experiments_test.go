package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"cacheuniformity/internal/addr"
	"cacheuniformity/internal/cache"
	"cacheuniformity/internal/core"
	"cacheuniformity/internal/report"
	"cacheuniformity/internal/testutil"
	"cacheuniformity/internal/trace"
)

// hookModel runs onBatch before handing each batch to the wrapped model.
type hookModel struct {
	cache.Model
	onBatch func(batch []trace.Access)
}

func (h *hookModel) AccessBatch(batch []trace.Access) {
	h.onBatch(batch)
	_ = cache.NewSink(h.Model).ConsumeBatch(batch) // model sinks never fail
}

func renderTable(t *testing.T, tbl *report.Table) string {
	t.Helper()
	var sb strings.Builder
	if err := tbl.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestSMTFiguresParallelismInvariant: the mix fan-out writes rows in mix
// order and every mix replays the same stream, so the tables cannot
// depend on the worker count.
func TestSMTFiguresParallelismInvariant(t *testing.T) {
	for _, fig := range []struct {
		id  int
		run func(context.Context, core.Config) (*report.Table, error)
	}{{13, Figure13}, {14, Figure14}} {
		var want string
		for _, par := range []int{1, 2, 8} {
			cfg := fastCfg()
			cfg.TraceLength = 20_000
			cfg.Parallelism = par
			tbl, err := fig.run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("figure %d at parallelism %d: %v", fig.id, par, err)
			}
			got := renderTable(t, tbl)
			if par == 1 {
				want = got
				continue
			}
			if got != want {
				t.Errorf("figure %d at parallelism %d differs from parallelism 1:\n%s\nwant:\n%s", fig.id, par, got, want)
			}
		}
	}
}

// TestFigure14CancelMidway cancels Figure 14's replay from inside one of
// its models after a few batches.  The fan-out must return the context's
// error, no model may take more than one batch once the cancellation is
// visible, and no generator pump or worker may outlive the call.
func TestFigure14CancelMidway(t *testing.T) {
	defer testutil.CheckLeaks(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := normalizeCfg(fastCfg())
	cfg.Parallelism = 2

	var (
		mu      sync.Mutex
		seen    int                // batches the first mix's first model took
		late    = map[string]int{} // batches each model took after cancellation
		batches atomic.Int64       // all batches, to show the run stopped early
	)
	const cancelAt = 3
	build := func(l addr.Layout, mix []string) ([]cache.Model, error) {
		models, err := figure14Models(l, mix)
		if err != nil {
			return nil, err
		}
		for i, m := range models {
			key := fmt.Sprintf("%s/%d", MixLabel(mix), i)
			first := key == MixLabel(ThreadMixes14[0])+"/0"
			models[i] = &hookModel{Model: m, onBatch: func([]trace.Access) {
				batches.Add(1)
				mu.Lock()
				defer mu.Unlock()
				if ctx.Err() != nil {
					late[key]++
				}
				if first {
					seen++
					if seen == cancelAt {
						cancel()
					}
				}
			}}
		}
		return models, nil
	}
	_, err := replayMixes(ctx, cfg, ThreadMixes14, build)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if seen != cancelAt {
		t.Errorf("cancelling model took %d batches, want %d", seen, cancelAt)
	}
	for key, n := range late {
		// The cancelling batch itself reaches the mix's later sinks, and a
		// batch read just before the cancel may still be delivered; a
		// second one would mean a replay ignored the context.
		if n > 1 {
			t.Errorf("model %s took %d batches after cancellation, want at most 1", key, n)
		}
	}
	full := int64(0)
	for _, mix := range ThreadMixes14 {
		full += int64(2 * len(mix) * cfg.TraceLength / trace.DefaultBatch)
	}
	if n := batches.Load(); n >= full/2 {
		t.Errorf("%d of ~%d batches replayed: cancellation did not stop the run early", n, full)
	}
}

// TestFigure14Cancelled: an already-cancelled context fails the figure
// with the context's error and leaves nothing running.
func TestFigure14Cancelled(t *testing.T) {
	defer testutil.CheckLeaks(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Figure14(ctx, fastCfg()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestReplayMixesModelPanic: a model that panics in one mix fails the
// figure with the broadcast's *trace.SinkPanicError instead of crashing
// the process, and the other workers still shut down.
func TestReplayMixesModelPanic(t *testing.T) {
	defer testutil.CheckLeaks(t)
	cfg := normalizeCfg(fastCfg())
	cfg.TraceLength = 20_000
	cfg.Parallelism = 2
	bad := MixLabel(ThreadMixes13[2])
	build := func(l addr.Layout, mix []string) ([]cache.Model, error) {
		models, err := figure13Models(l, mix)
		if err != nil || MixLabel(mix) != bad {
			return models, err
		}
		models[1] = &hookModel{Model: models[1], onBatch: func([]trace.Access) { panic("model fault") }}
		return models, nil
	}
	_, err := replayMixes(context.Background(), cfg, ThreadMixes13, build)
	var perr *trace.SinkPanicError
	if !errors.As(err, &perr) {
		t.Fatalf("err = %v, want a *trace.SinkPanicError", err)
	}
	if perr.Value != "model fault" || !strings.Contains(err.Error(), bad) {
		t.Errorf("err = %v (panic value %v), want the fault and mix %s named", err, perr.Value, bad)
	}
}
