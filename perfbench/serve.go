package main

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cacheuniformity/internal/cluster"
	"cacheuniformity/internal/core"
	"cacheuniformity/internal/resultstore"
	"cacheuniformity/internal/rng"
	"cacheuniformity/internal/server"
	"cacheuniformity/internal/trace"
	"cacheuniformity/internal/workload"
)

// Closed-loop load: simd's callers each wait for their reply, so the
// benchmark runs this many clients, each sending its next request only
// after the previous one's body is read, over at most this many
// keep-alive connections per node.
const clients = 2

// roundOps is the request count of one round.  A serve metric is the
// median over rounds, and each round's p99 has 20 samples beyond it.
const roundOps = 2000

// serveSchemes mix the scheme families a serving cell can ask for:
// direct-mapped index functions, programmable associativity and
// set-associative caches.  Eleven is coprime with four, so the
// include_per_set cells (every fourth) cover every scheme.
var serveSchemes = []string{
	"baseline", "xor", "odd_multiplier", "prime_modulo", "polynomial",
	"adaptive", "b_cache", "column_associative",
	"two_way", "four_way", "eight_way",
}

// cell is one (scheme, benchmark, config) request of a serve workload.
type cell struct {
	id     int
	scheme string
	bench  string
	seed   uint64
	length int
	perSet bool
	body   []byte
}

func (c *cell) label() string {
	return fmt.Sprintf("cell %d %s/%s seed %d len %d perset %t", c.id, c.scheme, c.bench, c.seed, c.length, c.perSet)
}

func (c *cell) config(base core.Config) core.Config {
	cfg := base
	cfg.Seed, cfg.TraceLength = c.seed, c.length
	return cfg
}

func newCell(id int, scheme, bench string, seed uint64, length int, perSet bool) *cell {
	body, err := json.Marshal(struct {
		Scheme    string `json:"scheme"`
		Benchmark string `json:"benchmark"`
		Config    struct {
			Seed        uint64 `json:"seed"`
			TraceLength int    `json:"trace_length"`
		} `json:"config"`
		IncludePerSet bool `json:"include_per_set,omitempty"`
	}{Scheme: scheme, Benchmark: bench, Config: struct {
		Seed        uint64 `json:"seed"`
		TraceLength int    `json:"trace_length"`
	}{seed, length}, IncludePerSet: perSet})
	if err != nil {
		panic(err) // a struct of strings and numbers always marshals
	}
	return &cell{id: id, scheme: scheme, bench: bench, seed: seed, length: length, perSet: perSet, body: body}
}

// serveCell is cell i of a run: scheme and benchmark cycle, the workload
// seed derives from the run seed, and every fourth cell asks for the
// per-set arrays.
func serveCell(runSeed uint64, i, length int) *cell {
	scheme := serveSchemes[i%len(serveSchemes)]
	bench := workload.MiBenchOrder[(i/len(serveSchemes))%len(workload.MiBenchOrder)]
	return newCell(i, scheme, bench, runSeed*1_000_003+uint64(i), length, i%4 == 0)
}

// shape is what distinguishes serve-hot from serve-fleet.
type shape struct {
	nodes      int
	cells      int
	memEntries int     // per node
	onDisk     bool    // stores persist manifests and traces
	skew       float64 // Zipf exponent of cell popularity
	freshEvery int     // every n-th request is a never-seen cell (0 = none)
}

func hotShape(s sizes) shape {
	return shape{nodes: 1, cells: s.hotCells, memEntries: 2 * s.hotCells, skew: 1.1}
}

// fleetShape: about half the never-seen cells are owned by the node that
// receives them (computed) and half are forwarded (peer, the slower
// mode).  One in 24 (4.2%) puts about 2% of requests in the forwarded
// mode, so p99 sits near that mode's median; at one in 50 p99 sat on the
// computed/peer boundary and moved 20% across seeds.
func fleetShape(s sizes) shape {
	return shape{nodes: 2, cells: s.fleetCells, memEntries: s.fleetCells / 8, onDisk: true, skew: 0.6, freshEvery: 24}
}

// nodeIDs are the fleet's pinned identities: rendezvous ownership hashes
// these URLs, so the same cell lands on the same owner in every run no
// matter which ephemeral ports the listeners get.  hopTransport maps
// them to the listeners.
var nodeIDs = []string{"http://127.0.0.1:17101", "http://127.0.0.1:17102"}

// node is one in-process simd.
type node struct {
	id    string
	addr  string
	dir   string
	store *resultstore.Store
	srv   *server.Server
	cl    *cluster.Cluster
	hs    *http.Server
	done  chan error
}

// hopTransport carries peer forwards: it rewrites a pinned identity to
// its listener, and in a traced run times the hop (until the body is
// closed) as a cluster.forward span under the request that caused it.
type hopTransport struct {
	base  *http.Transport
	addrs map[string]string
	rec   *recorder
	hops  atomic.Int64
	ns    atomic.Int64
}

func (t *hopTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	addr, ok := t.addrs[req.URL.Host]
	if !ok {
		return nil, fmt.Errorf("perfbench: no listener for peer %s", req.URL.Host)
	}
	ctx, end := t.rec.start(req.Context(), "cluster.forward")
	out := req.Clone(ctx)
	out.URL.Host, out.Host = addr, addr
	inject(ctx, out.Header)
	t0 := time.Now()
	resp, err := t.base.RoundTrip(out)
	if err != nil {
		end()
		t.record(t0)
		return nil, err
	}
	resp.Body = &hopBody{ReadCloser: resp.Body, done: func() { end(); t.record(t0) }}
	return resp, nil
}

func (t *hopTransport) record(t0 time.Time) {
	t.hops.Add(1)
	t.ns.Add(time.Since(t0).Nanoseconds())
}

type hopBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *hopBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

func newTransport() *http.Transport {
	return &http.Transport{
		MaxIdleConnsPerHost: clients,
		MaxConnsPerHost:     clients,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
}

// fleet is a running set of nodes.
type fleet struct {
	nodes []*node
	hop   *hopTransport
}

// startFleet opens each node's store, starts its listener on an
// ephemeral loopback port and waits until every node is ready.
func startFleet(sh shape, dir string, rec *recorder) (*fleet, error) {
	f := &fleet{hop: &hopTransport{base: newTransport(), addrs: map[string]string{}, rec: rec}}
	lns := make([]net.Listener, sh.nodes)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeAll(lns)
			return nil, err
		}
		lns[i] = ln
		f.hop.addrs[strings.TrimPrefix(nodeIDs[i], "http://")] = ln.Addr().String()
	}
	for i, ln := range lns {
		n := &node{id: nodeIDs[i], addr: ln.Addr().String(), done: make(chan error, 1)}
		opts := resultstore.Options{MemoryEntries: sh.memEntries, CompileTraces: true}
		if sh.onDisk {
			n.dir = filepath.Join(dir, fmt.Sprintf("node-%d", i))
			opts.Dir = n.dir
		}
		st, err := resultstore.Open(opts)
		if err != nil {
			closeAll(lns[i:])
			f.stop()
			return nil, err
		}
		n.store = st
		cfg := server.Config{Store: st, Sim: core.Default()}
		if sh.nodes > 1 {
			n.cl, err = cluster.New(cluster.Config{Self: n.id, Peers: nodeIDs[:sh.nodes], Transport: f.hop, Seed: 1})
			if err != nil {
				closeAll(lns[i:])
				f.stop()
				return nil, err
			}
			cfg.Cluster = n.cl
		}
		if n.srv, err = server.New(cfg); err != nil {
			closeAll(lns[i:])
			f.stop()
			return nil, err
		}
		n.hs = &http.Server{Handler: rec.middleware(n.srv.Handler())}
		go func(ln net.Listener) { n.done <- n.hs.Serve(ln) }(ln)
		f.nodes = append(f.nodes, n)
	}
	for _, n := range f.nodes {
		if n.cl != nil {
			n.cl.Probe(context.Background())
		}
	}
	return f, nil
}

func closeAll(lns []net.Listener) {
	for _, ln := range lns {
		if ln != nil {
			ln.Close()
		}
	}
}

// stop shuts every node down and waits for its serve loop to return.
func (f *fleet) stop() {
	for _, n := range f.nodes {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = n.hs.Shutdown(ctx)
		cancel()
		if err := <-n.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "perfbench: node", n.id, err)
		}
		if n.cl != nil {
			n.cl.Close()
		}
	}
	f.hop.base.CloseIdleConnections()
}

func (f *fleet) addrs() []string {
	out := make([]string, len(f.nodes))
	for i, n := range f.nodes {
		out[i] = n.addr
	}
	return out
}

// counters sums the nodes' store counters.
func (f *fleet) counters() resultstore.Counters {
	var sum resultstore.Counters
	for _, n := range f.nodes {
		c := n.store.Counters()
		sum.MemoryHits += c.MemoryHits
		sum.DiskHits += c.DiskHits
		sum.Misses += c.Misses
		sum.Evictions += c.Evictions
		sum.TraceCompiles += c.TraceCompiles
		sum.InflightWaits += c.InflightWaits
		sum.PeerFills += c.PeerFills
	}
	return sum
}

// scrape sums every node's /v1/metrics families (labelled series summed
// over labels), read through the handler in process.
func (f *fleet) scrape() map[string]float64 {
	out := map[string]float64{}
	for _, n := range f.nodes {
		w := httptest.NewRecorder()
		n.srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
		for _, line := range strings.Split(w.Body.String(), "\n") {
			if line == "" || line[0] == '#' {
				continue
			}
			name, val, ok := strings.Cut(line, " ")
			if i := strings.IndexByte(name, '{'); i >= 0 {
				name, val, ok = line[:i], line[strings.LastIndexByte(line, ' ')+1:], true
			}
			if v, err := strconv.ParseFloat(val, 64); ok && err == nil {
				out[name] += v
			}
		}
	}
	return out
}

// runServe: set-up starts the nodes and fills the working set through
// the API (setupReps times from scratch; the last fleet serves the
// pass).  The pass is a Zipf-popular closed loop for --seconds; in the
// fleet every freshEvery-th request is a never-seen cell.
func runServe(o options, rec *recorder, rep *results, sh shape, scratch string) error {
	ctx := context.Background()
	base := core.Default()
	cells := make([]*cell, sh.cells)
	for i := range cells {
		cells[i] = serveCell(o.seed, i, o.sizes.cellLength)
	}
	ch := newChecker(base)
	if err := ch.reference(ctx, cells); err != nil {
		return err
	}

	// The schedule is drawn up front, so the request sequence depends
	// only on the seed, never on how the clients interleave.
	maxReq := int(o.seconds*20_000) + roundOps
	z := rng.NewZipf(rng.New(o.seed), sh.skew, sh.cells)
	schedule := make([]*cell, maxReq)
	fresh := 0
	for k := range schedule {
		if sh.freshEvery > 0 && k%sh.freshEvery == sh.freshEvery-1 {
			schedule[k] = serveCell(o.seed, sh.cells+fresh, o.sizes.cellLength)
			fresh++
			continue
		}
		schedule[k] = cells[z.Next()]
	}

	var (
		p passStats
		f *fleet
	)
	for r := 0; r < o.sizes.setupReps; r++ {
		if f != nil {
			f.stop()
		}
		dir := filepath.Join(scratch, fmt.Sprintf("setup-%d", r))
		t0 := time.Now()
		var err error
		if f, err = startFleet(sh, dir, rec); err != nil {
			return err
		}
		if err := fill(ctx, f, cells, ch); err != nil {
			f.stop()
			return err
		}
		p.setup = append(p.setup, time.Since(t0).Seconds())
	}
	defer func() {
		if f != nil {
			f.stop()
		}
	}()
	if o.corruptRef {
		r := ch.refs[0]
		r.Counters.Hits++
		ch.refs[0] = r
		delete(ch.ok, 0)
	}

	rec.reset() // self times describe the pass, not the set-up's fills
	c0, m0 := f.counters(), f.scrape()
	f.hop.hops.Store(0)
	f.hop.ns.Store(0)
	heap := startHeapSampler()
	start := time.Now()
	samples := drive(ctx, rec, f.addrs(), func(k int) *cell { return schedule[k%len(schedule)] }, 0,
		time.Duration(o.seconds*float64(time.Second)), ch)
	p.seconds = time.Since(start).Seconds()
	p.heapMB, p.gcNote = heap.stopMB()
	c1, m1 := f.counters(), f.scrape()

	// Never-seen cells are checked once the pass is over, so computing
	// their references does not compete with the nodes for the CPUs.
	var pending []*cell
	for _, s := range samples {
		if s.body != nil {
			pending = append(pending, s.c)
		}
	}
	if err := ch.reference(ctx, pending); err != nil {
		return err
	}
	failMS := 1000 * p.seconds
	for i := range samples {
		s := &samples[i]
		if s.err == nil && s.body != nil {
			s.origin, s.err = ch.check(s.c, s.body)
		}
		p.ops++
		if s.err != nil {
			p.failed++
			s.ms = failMS
			if p.failed <= 10 {
				fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", s.c.label(), s.err)
			}
		}
		p.lat = append(p.lat, s.ms)
	}
	slices.SortFunc(samples, func(a, b sample) int { return cmp.Compare(a.done, b.done) })
	var prev time.Duration
	for i := roundOps; i <= len(samples); i += roundOps {
		p.rounds = append(p.rounds, (samples[i-1].done - prev).Seconds())
		prev = samples[i-1].done
		lat := make([]float64, 0, roundOps)
		for _, s := range samples[i-roundOps : i] {
			lat = append(lat, s.ms)
		}
		slices.Sort(lat)
		p.roundLat = append(p.roundLat, lat)
	}
	if len(p.rounds) == 0 { // a pass shorter than one round reports whole-pass figures
		p.rounds = append(p.rounds, p.seconds)
	}
	rep.attempted, rep.failed = p.ops, p.failed
	if rec == nil {
		p.publish(rep, "", "request")
		return nil
	}
	p.publish(rep, "traced.", "request")
	publishServeLayers(rep, samples, c0, c1, m0, m1, f)

	// Probes replay the workload's own cells and their traces.
	f.stop()
	in := probeInput{cfg: base, scratch: scratch}
	if sh.onDisk {
		in.diskDir = f.nodes[0].dir
	}
	f = nil
	n := min(o.sizes.probeCells, len(cells))
	in.cells = cells[:n]
	for _, c := range cells[:n] {
		spec, err := workload.Lookup(c.bench)
		if err != nil {
			return err
		}
		ct, err := spec.Compile(ctx, c.seed, c.length, 0)
		if err != nil {
			return err
		}
		in.specs = append(in.specs, probeSpec{spec: spec, seed: c.seed, length: c.length})
		in.traces = append(in.traces, ct)
	}
	return runProbes(ctx, in, rep)
}

// publishServeLayers reports what the pass itself shows per layer:
// latency by origin, store and server counts read at the pass
// boundaries, and the peer hops.
func publishServeLayers(rep *results, samples []sample, c0, c1 resultstore.Counters, m0, m1 map[string]float64, f *fleet) {
	all := make([]float64, 0, len(samples))
	byOrigin := map[string][]float64{}
	for _, s := range samples {
		all = append(all, s.ms)
		if s.err == nil {
			byOrigin[s.origin] = append(byOrigin[s.origin], s.ms)
		}
	}
	slices.Sort(all)
	q, p999, beyond := tailPercentile(all, 0.999, 10)
	rep.set("latency_p999_ms", p999, "p%.4g of n=%d, %d beyond", 100*q, len(all), beyond)
	for _, o := range serveOrigins {
		xs := byOrigin[o]
		slices.Sort(xs)
		v, b := percentile(xs, 0.5)
		rep.set("serve."+o+"_p50_ms", v, "n=%d, %d beyond", len(xs), b)
		rep.set("serve."+o+"_n", float64(len(xs)), "of %d requests", len(samples))
	}
	d := func(a, b uint64) float64 { return float64(b - a) }
	lookups := d(c0.MemoryHits+c0.DiskHits+c0.Misses, c1.MemoryHits+c1.DiskHits+c1.Misses)
	memFrac := 0.0
	if lookups > 0 {
		memFrac = d(c0.MemoryHits, c1.MemoryHits) / lookups
	}
	rep.set("store.mem_hit_frac", memFrac, "memory hits / %.0f store lookups", lookups)
	rep.set("store.disk_hits", d(c0.DiskHits, c1.DiskHits), "during the pass")
	rep.set("store.misses", d(c0.Misses, c1.Misses), "during the pass")
	rep.set("store.evictions", d(c0.Evictions, c1.Evictions), "during the pass")
	rep.set("store.trace_compiles", d(c0.TraceCompiles, c1.TraceCompiles), "during the pass")
	rep.set("store.inflight_waits", d(c0.InflightWaits, c1.InflightWaits), "during the pass")
	rep.set("trace.compiles", d(c0.TraceCompiles, c1.TraceCompiles), "during the pass")
	delta := func(name string) float64 { return m1[name] - m0[name] }
	rep.set("server.queue_sheds", delta("simd_queue_sheds_total"), "during the pass")
	rep.set("server.errors", delta("simd_errors_total"), "during the pass")
	attempts := delta("simd_peer_forwards_total")
	rep.set("cluster.attempts", attempts, "peer attempts during the pass")
	rep.set("cluster.hedges", delta("simd_peer_hedges_total"), "during the pass")
	useful := 0.0
	if attempts > 0 {
		useful = delta("simd_peer_fills_total") / attempts
	}
	rep.set("cluster.useful_frac", useful, "%.0f peer fills / %.0f attempts", delta("simd_peer_fills_total"), attempts)
	if hops := f.hop.hops.Load(); hops > 0 {
		rep.set("cluster.forward_ms", float64(f.hop.ns.Load())/1e6/float64(hops), "mean of %d hops, send to body closed", hops)
	}
}

// probeSpec is a benchmark stream a probe regenerates.
type probeSpec struct {
	spec   workload.Spec
	seed   uint64
	length int
}

// probeInput is what the per-layer probes replay: the workload's own
// compiled traces and cells.
type probeInput struct {
	cfg     core.Config
	specs   []probeSpec
	traces  []*trace.Compiled
	cells   []*cell
	diskDir string // a node directory to reopen with the memory tier off ("" = build one)
	scratch string // directory for the probe's own store
}
