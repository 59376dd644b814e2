package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cacheuniformity/internal/core"
	"cacheuniformity/internal/trace"
	"cacheuniformity/internal/workload"
)

// span is one timed call into a layer.  Spans of one request (or one
// figure) share Trace; Parent is the span that caused this one (0 for a
// root).  Times are offsets from the recorder's start.
type span struct {
	Trace  uint64        `json:"trace"`
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends.  A nil *recorder
// records nothing, so untraced runs pay one nil check per boundary.
type recorder struct {
	base  time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

type spanKey struct{}

// spanRef locates a span for its children.
type spanRef struct{ trace, id uint64 }

// spanHeader carries the parent span across an HTTP hop.
const spanHeader = "X-Perfbench-Span"

// start opens a span named name, a child of the span in ctx or a new
// root, and returns the context carrying it and the function ending it.
func (r *recorder) start(ctx context.Context, name string) (context.Context, func()) {
	if r == nil {
		return ctx, func() {}
	}
	parent, _ := ctx.Value(spanKey{}).(spanRef)
	return r.startUnder(ctx, name, parent)
}

func (r *recorder) startUnder(ctx context.Context, name string, parent spanRef) (context.Context, func()) {
	id := r.ids.Add(1)
	tr := parent.trace
	if tr == 0 {
		tr = id
	}
	s := span{Trace: tr, ID: id, Parent: parent.id, Name: name, Start: time.Since(r.base)}
	return context.WithValue(ctx, spanKey{}, spanRef{tr, id}), func() {
		s.End = time.Since(r.base)
		r.mu.Lock()
		r.spans = append(r.spans, s)
		r.mu.Unlock()
	}
}

// inject writes ctx's span into an outgoing request's header.
func inject(ctx context.Context, h http.Header) {
	if ref, ok := ctx.Value(spanKey{}).(spanRef); ok {
		h.Set(spanHeader, fmt.Sprintf("%d-%d", ref.trace, ref.id))
	}
}

// extract reads the parent span an incoming request carries.
func extract(h http.Header) spanRef {
	tr, id, ok := strings.Cut(h.Get(spanHeader), "-")
	if !ok {
		return spanRef{}
	}
	t, err1 := strconv.ParseUint(tr, 10, 64)
	i, err2 := strconv.ParseUint(id, 10, 64)
	if err1 != nil || err2 != nil {
		return spanRef{}
	}
	return spanRef{t, i}
}

// middleware wraps a node's handler in a server.handle span parented to
// the caller's span, and puts the span in the request context so the
// peer-hop transport can link a forward to the request that caused it.
func (r *recorder) middleware(next http.Handler) http.Handler {
	if r == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		ctx, end := r.startUnder(req.Context(), "server.handle", extract(req.Header))
		defer end()
		next.ServeHTTP(w, req.WithContext(ctx))
	})
}

// reset drops the spans recorded so far.
func (r *recorder) reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = nil
	r.mu.Unlock()
}

func (r *recorder) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// write dumps the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// summarize reports each span name's mean self time: its duration minus
// the part of it that its children cover.  Self time can never exceed
// the span; a violation would mean the recorder mis-nests spans and is
// reported as a failed operation.
func (r *recorder) summarize(rep *results) {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[uint64][]span, len(r.spans))
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	type agg struct {
		n          int
		self, span time.Duration
	}
	by := map[string]*agg{}
	bad := 0
	for _, s := range r.spans {
		self := s.End - s.Start - covered(s, children[s.ID])
		if self < 0 || self > s.End-s.Start {
			bad++
		}
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
		}
		a.n++
		a.self += self
		a.span += s.End - s.Start
	}
	for _, name := range spanNames {
		if a := by[name]; a != nil {
			rep.set("self."+name+"_ms", millis(a.self)/float64(a.n),
				"mean of %d spans; mean span %.4g ms", a.n, millis(a.span)/float64(a.n))
		}
	}
	if bad > 0 {
		rep.failed += bad
		fmt.Fprintf(os.Stderr, "perfbench: %d spans with self time outside [0, span]\n", bad)
	}
}

// covered is the length of the union of the children's intervals
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	curS, curE := time.Duration(-1), time.Duration(-1)
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

// memoProbe is a core.Config.Memo that times every Grid and RunOne call
// and delegates to core with Memo cleared, so results are unchanged.
type memoProbe struct {
	rec   *recorder
	calls atomic.Int64
	ns    atomic.Int64
}

func (m *memoProbe) MemoGrid(ctx context.Context, cfg core.Config, schemes, benches []string) (map[string]map[string]core.Result, error) {
	ctx, end := m.rec.start(ctx, "core.grid")
	defer end()
	defer m.time(time.Now())
	cfg.Memo = nil
	return core.Grid(ctx, cfg, schemes, benches)
}

func (m *memoProbe) MemoCell(ctx context.Context, cfg core.Config, scheme, bench string) (core.Result, error) {
	ctx, end := m.rec.start(ctx, "core.cell")
	defer end()
	defer m.time(time.Now())
	cfg.Memo = nil
	return core.RunOne(ctx, cfg, scheme, bench)
}

func (m *memoProbe) time(t0 time.Time) {
	m.calls.Add(1)
	m.ns.Add(time.Since(t0).Nanoseconds())
}

// traceProbe is a core.Config.Traces that counts and spans every
// compiled-trace fetch.
type traceProbe struct {
	src     core.TraceSource
	rec     *recorder
	fetches atomic.Int64
}

func (t *traceProbe) CompiledTrace(ctx context.Context, cfg core.Config, bench workload.Spec) (*trace.Compiled, error) {
	ctx, end := t.rec.start(ctx, "trace.fetch")
	defer end()
	t.fetches.Add(1)
	return t.src.CompiledTrace(ctx, cfg, bench)
}
