package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"cacheuniformity/internal/core"
	"cacheuniformity/internal/experiments"
)

// metricDef names one printed metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees, measured with tracing off.
// Every workload prints all of them; README.md defines each per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"req_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"ok_frac", "frac"},
	{"heap_peak_mb", "MB"},
}

// indexKinds are the index functions the indexing probe times.
var indexKinds = []string{"modulo", "xor", "odd_multiplier", "prime_modulo", "givargis", "givargis_xor", "polynomial", "sandybridge"}

// serveOrigins are the response origins the client groups latency by.
var serveOrigins = []string{"memory", "disk", "computed", "peer"}

// spanNames are the spans the traced run records, in blocking order.
var spanNames = []string{"figure", "core.grid", "core.cell", "trace.fetch", "client.request", "server.handle", "cluster.forward"}

// perLayer is the traced run's metric set.  A workload that never enters
// a layer prints that layer's pass observations as 0 (no time, no
// events); the probes run on every workload's own cells and traces.
func perLayer() []metricDef {
	var d []metricDef
	add := func(unit string, names ...string) {
		for _, n := range names {
			d = append(d, metricDef{n, unit})
		}
	}
	for _, f := range experiments.All() {
		add("s", fmt.Sprintf("fig.%02d_s", f.ID))
	}
	add("s", "core.grid_s")
	add("count", "core.grid_calls")
	add("ms", "core.grid1_serial_ms", "core.grid1_sharded_ms")
	add("count", "trace.fetches", "trace.compiles")
	add("ns", "trace.compile_ns_per_access", "trace.decode_ns_per_access")
	add("count", "trace.decode_allocs")
	add("ns", "workload.generate_ns_per_access")
	for _, k := range indexKinds {
		add("ns", "indexing."+k+"_ns_per_access")
	}
	for _, s := range core.Schemes() {
		add("ns", "model."+s.Name+"_ns_per_access")
	}
	add("count", "model.allocs_per_maccess")
	add("us", "registry.resolve_us", "store.key_us", "store.mem_hit_us")
	add("count", "store.mem_hit_allocs")
	add("us", "store.disk_hit_us")
	add("count", "store.disk_hit_allocs")
	add("ms", "store.miss_ms")
	add("frac", "store.mem_hit_frac")
	add("count", "store.disk_hits", "store.misses", "store.evictions", "store.trace_compiles", "store.inflight_waits")
	add("us", "report.encode_us", "report.encode_perset_us", "server.handle_us")
	add("count", "server.handle_allocs", "server.queue_sheds", "server.errors")
	for _, o := range serveOrigins {
		add("ms", "serve."+o+"_p50_ms")
		add("count", "serve."+o+"_n")
	}
	add("ms", "latency_p999_ms", "cluster.forward_ms")
	add("count", "cluster.attempts", "cluster.hedges")
	add("frac", "cluster.useful_frac")
	for _, s := range spanNames {
		add("ms", "self."+s+"_ms")
	}
	for _, m := range endToEnd {
		add(m.unit, "traced."+m.name)
	}
	return d
}

// results collects a run's metric values, the notes printed beside them
// (sample counts, bases of ratios), and the pass's operation counts.
type results struct {
	vals      map[string]float64
	notes     map[string]string
	attempted int
	failed    int
}

func newResults() *results {
	return &results{vals: map[string]float64{}, notes: map[string]string{}}
}

func (r *results) set(name string, v float64, note string, args ...any) {
	r.vals[name] = v
	if note != "" {
		r.notes[name] = fmt.Sprintf(note, args...)
	}
}

// outcome prints defs with their units and notes and builds the JSON
// line.  Every end-to-end metric must have been measured; a per-layer
// metric the workload never reached prints as 0.
func (r *results) outcome(defs []metricDef, perLayer bool, w io.Writer) (*outcome, error) {
	out := &outcome{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricJSON, len(defs)),
	}
	for _, d := range defs {
		v, ok := r.vals[d.name]
		note := r.notes[d.name]
		if !ok {
			if !perLayer {
				return nil, fmt.Errorf("metric %s was not measured", d.name)
			}
			note = "not exercised by this workload"
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite", d.name)
		}
		out.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
		if note != "" {
			note = "  (" + note + ")"
		}
		fmt.Fprintf(w, "%-40s %14.6g %s%s\n", d.name, v, d.unit, note)
	}
	fmt.Fprintf(w, "operations: %d attempted, %d failed\n", r.attempted, r.failed)
	return out, nil
}

// passStats is the end-to-end view of one measured pass, shared by every
// workload: an operation is a figure table or a request.
type passStats struct {
	setup  []float64 // seconds of each set-up repetition
	rounds []float64 // seconds of each round (12 figures, or roundOps requests)
	// roundLat holds each request round's latencies, sorted; when set,
	// the latency and throughput metrics are medians over the rounds.
	roundLat [][]float64
	// tailQ, when set, is the tail quantile every run reports, in place
	// of p99 (figures: too few tables for a p99).
	tailQ   float64
	seconds float64   // wall seconds of the whole pass
	lat     []float64 // per-operation latency in ms; a failure holds the pass length
	ops     int
	failed  int
	heapMB  float64
	gcNote  string
}

// publish sets the end-to-end metrics under prefix ("" or "traced.").
// A serve pass reports each metric as the median over its rounds, so a
// few slow seconds on a shared host move one round, not the result.
func (p *passStats) publish(r *results, prefix, opName string) {
	sorted := append([]float64(nil), p.lat...)
	sort.Float64s(sorted)
	r.set(prefix+"setup_s", median(p.setup), "median of %d set-ups %s", len(p.setup), fmtList(p.setup))
	r.set(prefix+"wall_s", median(p.rounds), "median of %d rounds of %s %s", len(p.rounds), roundName(opName), fmtList(p.rounds))
	if len(p.roundLat) == 0 {
		// The median averages the two middle samples of an even count: with
		// 24 figure tables a nearest-rank p50 would be one figure's slower
		// pass.
		tq := 0.99
		if p.tailQ > 0 {
			tq = p.tailQ
		}
		q, p99, beyond := tailPercentile(sorted, tq, 10)
		r.set(prefix+"req_per_s", float64(p.ops)/p.seconds, "%d %ss in %.2fs", p.ops, opName, p.seconds)
		r.set(prefix+"latency_p50_ms", median(sorted), "p50 of n=%d %ss, %d beyond", len(sorted), opName, len(sorted)/2)
		r.set(prefix+"latency_p99_ms", p99, "p%.4g of n=%d %ss, %d beyond", 100*q, len(sorted), opName, beyond)
	} else {
		var rates, p50s, p99s []float64
		beyond50, beyond99 := 0, 0
		for i, lat := range p.roundLat {
			rates = append(rates, float64(len(lat))/p.rounds[i])
			v, b := percentile(lat, 0.5)
			p50s, beyond50 = append(p50s, v), b
			v, b = percentile(lat, 0.99)
			p99s, beyond99 = append(p99s, v), b
		}
		_, pooled99, _ := tailPercentile(sorted, 0.99, 10)
		n := len(p.roundLat)
		r.set(prefix+"req_per_s", median(rates), "median of %d rounds; whole pass %d %ss in %.2fs", n, p.ops, opName, p.seconds)
		r.set(prefix+"latency_p50_ms", median(p50s), "median of %d rounds' p50 (n=%d, %d beyond, each); whole pass %.4g", n, roundOps, beyond50, median(sorted))
		r.set(prefix+"latency_p99_ms", median(p99s), "median of %d rounds' p99 (n=%d, %d beyond, each) %s; whole pass %.4g", n, roundOps, beyond99, fmtList(p99s), pooled99)
	}
	r.set(prefix+"ok_frac", float64(p.ops-p.failed)/float64(p.ops), "%d of %d %ss correct", p.ops-p.failed, p.ops, opName)
	r.set(prefix+"heap_peak_mb", p.heapMB, "peak live heap during the pass; %s", p.gcNote)
}

func roundName(op string) string {
	if op == "figure" {
		return "all 12 figures"
	}
	return fmt.Sprintf("%d %ss", roundOps, op)
}

func fmtList(xs []float64) string {
	s := "["
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.3f", x)
	}
	return s + "]"
}

// percentile is the nearest-rank q-quantile of sorted and the number of
// samples strictly beyond it.
func percentile(sorted []float64, q float64) (float64, int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i], n - 1 - i
}

// tailPercentile is the q-quantile when at least minBeyond samples lie
// beyond it, else the highest quantile that has minBeyond beyond it (or
// the median, when even that is out of reach).  It returns the quantile
// used.
func tailPercentile(sorted []float64, q float64, minBeyond int) (float64, float64, int) {
	n := len(sorted)
	v, beyond := percentile(sorted, q)
	if beyond >= minBeyond || n == 0 {
		return q, v, beyond
	}
	i := n - 1 - minBeyond
	if i < (n-1)/2 {
		i = (n - 1) / 2
	}
	return float64(i+1) / float64(n), sorted[i], n - 1 - i
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// heapSampler tracks the peak live heap — the heap marked live by the
// most recent GC — while it runs, and the GC work the pass caused.
type heapSampler struct {
	stop, done chan struct{}
	peak       uint64
	gc0        []metrics.Sample
}

var gcMetrics = []string{"/gc/cycles/total:gc-cycles", "/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readGC() []metrics.Sample {
	s := make([]metrics.Sample, len(gcMetrics))
	for i, n := range gcMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func startHeapSampler() *heapSampler {
	runtime.GC()
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{}), gc0: readGC()}
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	read := func() {
		metrics.Read(sample)
		if v := sample[0].Value.Uint64(); v > h.peak {
			h.peak = v
		}
	}
	read()
	go func() {
		defer close(h.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return h
}

// stopMB stops the sampler and returns the peak in MB (2^20 bytes) and a
// note on the pass's GC cycles and their share of the process's CPU.
func (h *heapSampler) stopMB() (float64, string) {
	close(h.stop)
	<-h.done
	gc1 := readGC()
	cycles := gc1[0].Value.Uint64() - h.gc0[0].Value.Uint64()
	gcCPU := gc1[1].Value.Float64() - h.gc0[1].Value.Float64()
	cpu := gc1[2].Value.Float64() - h.gc0[2].Value.Float64()
	return float64(h.peak) / (1 << 20), fmt.Sprintf("%d GC cycles, %.1f%% of %.1f CPU-s in GC", cycles, 100*gcCPU/cpu, cpu)
}

// allocCount reads the process's cumulative heap allocation count.
func allocCount() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
