package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one request as the client saw it.
type sample struct {
	c      *cell
	ms     float64
	done   time.Duration // completion, from the start of the pass
	origin string
	body   []byte // kept for cells checked after the pass
	err    error
}

// client is one closed-loop client.  It owns one keep-alive connection
// per node and reads each response on its own goroutine, so the load
// generator adds no goroutine hand-offs to a request.
type client struct {
	rec   *recorder
	conns map[string]*clientConn // by node address
}

type clientConn struct {
	c  net.Conn
	br *bufio.Reader
	bw *bufio.Writer
}

func (cl *client) close() {
	for _, cc := range cl.conns {
		cc.c.Close()
	}
}

// do sends one request and reads the whole body; the latency runs from
// send until the body is read.
func (cl *client) do(ctx context.Context, addr string, c *cell) (sample, []byte) {
	ctx, end := cl.rec.start(ctx, "client.request")
	defer end()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+addr+"/v1/cell", bytes.NewReader(c.body))
	if err != nil {
		return sample{c: c, err: err}, nil
	}
	req.Header.Set("Content-Type", "application/json")
	inject(ctx, req.Header)
	t0 := time.Now()
	body, status, err := cl.roundTrip(addr, req)
	s := sample{c: c, ms: millis(time.Since(t0)), err: err}
	if err == nil && status != http.StatusOK {
		s.err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	}
	return s, body
}

// roundTrip writes req on the node's connection, dialling it first if
// needed, and reads the response; a failed or closing connection is
// dropped.
func (cl *client) roundTrip(addr string, req *http.Request) ([]byte, int, error) {
	cc := cl.conns[addr]
	if cc == nil {
		c, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			return nil, 0, err
		}
		cc = &clientConn{c: c, br: bufio.NewReader(c), bw: bufio.NewWriter(c)}
		cl.conns[addr] = cc
	}
	body, status, closing, err := exchange(cc, req)
	if err != nil || closing {
		cc.c.Close()
		delete(cl.conns, addr)
	}
	return body, status, err
}

func exchange(cc *clientConn, req *http.Request) (body []byte, status int, closing bool, err error) {
	if err := cc.c.SetDeadline(time.Now().Add(time.Minute)); err != nil {
		return nil, 0, true, err
	}
	if err := req.Write(cc.bw); err != nil {
		return nil, 0, true, err
	}
	if err := cc.bw.Flush(); err != nil {
		return nil, 0, true, err
	}
	resp, err := http.ReadResponse(cc.br, req)
	if err != nil {
		return nil, 0, true, err
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	return body, resp.StatusCode, resp.Close, err
}

// drive runs the closed loop: clients goroutines, request k for cell
// pick(k) to node k mod len(addrs), until the deadline (or, with limit >
// 0, until limit requests).  Each response is checked inline when its
// reference is known, else its body is kept.
func drive(ctx context.Context, rec *recorder, addrs []string, pick func(k int) *cell, limit int, d time.Duration, ch *checker) []sample {
	var (
		next  atomic.Int64
		wg    sync.WaitGroup
		mu    sync.Mutex
		out   []sample
		start = time.Now()
	)
	deadline := start.Add(d)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := &client{rec: rec, conns: map[string]*clientConn{}}
			defer cl.close()
			var local []sample
			for limit > 0 || time.Now().Before(deadline) {
				k := int(next.Add(1) - 1)
				if limit > 0 && k >= limit {
					break
				}
				c := pick(k)
				s, body := cl.do(ctx, addrs[k%len(addrs)], c)
				s.done = time.Since(start)
				if s.err == nil {
					ch.mu.Lock()
					_, known := ch.refs[c.id]
					ch.mu.Unlock()
					if known {
						s.origin, s.err = ch.check(c, body)
					} else {
						s.body = body
					}
				}
				local = append(local, s)
			}
			mu.Lock()
			out = append(out, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out
}

// fill sends every cell once to each node in turn, so each node's tiers
// hold the working set (a non-owner peer-fills from the owner).
func fill(ctx context.Context, f *fleet, cells []*cell, ch *checker) error {
	for _, n := range f.nodes {
		for _, s := range drive(ctx, nil, []string{n.addr}, func(k int) *cell { return cells[k] }, len(cells), 0, ch) {
			if s.err != nil {
				return fmt.Errorf("set-up: %s: %w", s.c.label(), s.err)
			}
		}
	}
	return nil
}
