package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Open-loop load. Slot i of a schedule is due at start + i/rate no
// matter how earlier requests fared; a fixed pool of keep-alive
// connections takes slots in order, and every request is timed from
// when it was due, so a stall is charged to every request it delays.
// How late each request left is reported as well, to show whether the
// generator kept up.

// outcome is one request's measurement.
type outcome struct {
	due, sent, done time.Time
	err             error // transport error or failed answer check
}

func (o outcome) latency() time.Duration  { return o.done.Sub(o.due) }
func (o outcome) lateness() time.Duration { return o.sent.Sub(o.due) }

// dueAt is the due time of slot i.
func dueAt(start time.Time, rate float64, i int) time.Time {
	return start.Add(time.Duration(float64(i) * float64(time.Second) / rate))
}

// sleepUntil blocks the calling thread until t. The runtime's timers
// wake at millisecond granularity on Linux, which would add up to a
// millisecond of false lateness to a sub-millisecond request;
// nanosleep wakes within tens of microseconds. The sleeping thread
// holds its processor, so main sizes GOMAXPROCS with one spare per
// connection.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop re-checks the time
	}
}

// maxConns bounds the connection pool at one per CPU.
func maxConns() int { return runtime.NumCPU() }

// requestTimeout fails a request that has not been answered in time.
const requestTimeout = 10 * time.Second

// conn is one keep-alive HTTP/1.1 connection, used by one goroutine,
// and the benchmark's only HTTP client: load, PUTs, readiness probes
// and /metrics scrapes all go through it. Requests are written and
// responses read on the caller's goroutine, so the time between due
// and done holds the write, the server and the read, and no hand-off
// to a transport's own goroutines.
type conn struct {
	ctx  context.Context
	addr string // host:port
	c    net.Conn
	br   *bufio.Reader
	hdr  []byte
	stop func() bool // unregisters the close-on-cancel hook
}

// newConn returns an unconnected conn to base whose in-flight request
// fails as soon as ctx ends.
func newConn(ctx context.Context, base string) *conn {
	return &conn{ctx: ctx, addr: strings.TrimPrefix(base, "http://")}
}

// do sends one request and returns the status and body. A transport
// error drops the connection; the next request dials a new one.
func (c *conn) do(method, path string, body []byte) (int, []byte, error) {
	if c.c == nil {
		nc, err := net.DialTimeout("tcp", c.addr, requestTimeout)
		if err != nil {
			return 0, nil, err
		}
		c.c, c.br = nc, bufio.NewReaderSize(nc, 64<<10)
		c.stop = context.AfterFunc(c.ctx, func() { nc.Close() })
	}
	status, b, err := c.roundTrip(method, path, body)
	if err != nil {
		c.close()
	}
	return status, b, err
}

func (c *conn) roundTrip(method, path string, body []byte) (int, []byte, error) {
	if err := c.c.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		return 0, nil, err
	}
	c.hdr = fmt.Appendf(c.hdr[:0], "%s %s HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n",
		method, path, c.addr, len(body))
	bufs := net.Buffers{c.hdr, body}
	if _, err := bufs.WriteTo(c.c); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	if resp.Close {
		c.close()
	}
	return resp.StatusCode, b, nil
}

func (c *conn) close() {
	if c.c != nil {
		c.stop()
		c.c.Close()
		c.c, c.br = nil, nil
	}
}

// openLoop sends items to base on the fixed schedule at rate over
// conns connections and returns one outcome per item. Each answer is
// checked as it arrives. onDone, if set, sees every finished item
// (the traced run records spans there).
func openLoop(ctx context.Context, base string, items []*item, rate float64, conns int,
	onDone func(i int, o outcome, checked time.Time)) []outcome {
	out := make([]outcome, len(items))
	var next atomic.Int64
	// Collection is off while measuring (see main): start from a small
	// heap, and give every worker time to reach its first slot.
	runtime.GC()
	start := time.Now().Add(20 * time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newConn(ctx, base)
			defer c.close()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(items) {
					return
				}
				it := items[i]
				o := outcome{due: dueAt(start, rate, i)}
				if err := ctx.Err(); err != nil {
					o.err = err
					out[i] = o
					continue
				}
				sleepUntil(o.due)
				o.sent = time.Now()
				status, body, err := c.do(it.method, it.path, it.body)
				o.done = time.Now()
				if err == nil {
					err = checkAnswer(it, status, body)
				}
				o.err = err
				out[i] = o
				if onDone != nil {
					onDone(i, o, time.Now())
				}
			}
		}()
	}
	wg.Wait()
	return out
}

// closedLoop sends items one after another over one connection and
// returns each round trip, checking every answer.
func closedLoop(ctx context.Context, base string, items []*item) ([]time.Duration, []error) {
	c := newConn(ctx, base)
	defer c.close()
	rtts := make([]time.Duration, len(items))
	errs := make([]error, len(items))
	for i, it := range items {
		if err := ctx.Err(); err != nil {
			errs[i] = err
			continue
		}
		t := time.Now()
		status, body, err := c.do(it.method, it.path, it.body)
		rtts[i] = time.Since(t)
		if err == nil {
			err = checkAnswer(it, status, body)
		}
		errs[i] = err
	}
	return rtts, errs
}
