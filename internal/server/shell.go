// The serving shell: everything about speaking the framed protocol on
// a TCP listener that does not depend on what the requests mean. The
// scan server and the gateway are both a Shell plus three hooks — how
// to dispatch a frame, what to reap when a connection closes, and what
// to retire once the readers are gone.
//
// Connections: every accepted connection gets one reader goroutine
// that parses frames under a read deadline and a frame-size cap and
// hands each to Dispatch. Responses are written under the connection's
// write mutex and a write deadline, so pipelined requests interleave
// safely and a peer that stops reading fails its own connection instead
// of wedging a worker. A framing fault cannot be resynchronised: the
// reader answers ERROR bad-frame, half-closes, briefly discards what
// the peer still sends (so the ERROR is not destroyed by a TCP RST),
// and closes.
//
// Drain: Shutdown stops the accept loop and wakes every reader; each
// reader waits for the work admitted from its connection to be
// answered, runs ConnClosed, and closes its socket. Once the last
// reader is gone nothing can admit work any more and Drain retires the
// front end's queue and workers. No admitted request is dropped; no
// goroutine outlives the drain (the leak-check tests pin this for both
// front ends).
package server

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"alveare/internal/metrics"
)

// faultDrainTimeout bounds how long a reader spends discarding the
// peer's leftover bytes after a framing fault before closing.
const faultDrainTimeout = 500 * time.Millisecond

// ShellConfig parameterises a Shell.
type ShellConfig struct {
	// Name prefixes the shell's metrics (<Name>.errors, .bytes.in,
	// .bytes.out, .conns.open, .conns.total) and its errors.
	Name string
	// Addr is the listen address for ListenAndServe.
	Addr string
	// MaxFrame bounds one request frame; ReadTimeout and WriteTimeout
	// are the per-frame deadlines (a non-positive WriteTimeout disables
	// the write deadline).
	MaxFrame     int
	ReadTimeout  time.Duration
	WriteTimeout time.Duration
	// Registry receives the shell's metrics.
	Registry *metrics.Registry

	// Start launches the front end's workers; Serve calls it once,
	// before accepting.
	Start func()
	// Dispatch handles one parsed request on the connection's reader
	// goroutine, so it must never block on scan work. Work it admits
	// for later is counted in c.Pending until answered.
	Dispatch func(c *Conn, f Frame)
	// ConnClosed runs when c's reader has exited and everything
	// admitted from c was answered, before the socket closes.
	ConnClosed func(c *Conn)
	// Drain runs once, after the last reader has exited: close the
	// queue the readers fed, wait for the workers, release backends.
	Drain func()
}

// Shell is one listener's lifecycle and its connections.
type Shell struct {
	sc ShellConfig

	errs       *metrics.Counter
	bytesIn    *metrics.Counter
	bytesOut   *metrics.Counter
	connsOpen  *metrics.Gauge
	connsTotal *metrics.Counter

	ctx   context.Context
	abort context.CancelFunc // hard stop: cancels in-flight work

	mu       sync.Mutex
	ln       net.Listener
	conns    map[*Conn]struct{}
	stopping chan struct{} // closed (under mu) when Shutdown or Close begins

	stopOnce sync.Once
	stopped  chan struct{} // closed once the drain completes
	wgConns  sync.WaitGroup
}

// Conn is one accepted connection: frames are read by its reader
// goroutine and responses written by whichever goroutine has one, under
// the write mutex.
type Conn struct {
	// Pending counts the work admitted from this connection and not yet
	// answered; the reader waits on it before closing the socket.
	Pending sync.WaitGroup

	sh     *Shell
	nc     net.Conn
	wmu    sync.Mutex
	broken atomic.Bool // a response write failed; drop the rest
}

// NewShell builds a shell around the front end's hooks. It does not
// listen until Serve or ListenAndServe.
func NewShell(sc ShellConfig) *Shell {
	ctx, cancel := context.WithCancel(context.Background())
	r := sc.Registry
	return &Shell{
		sc:         sc,
		errs:       r.Counter(sc.Name + ".errors"),
		bytesIn:    r.Counter(sc.Name + ".bytes.in"),
		bytesOut:   r.Counter(sc.Name + ".bytes.out"),
		connsOpen:  r.Gauge(sc.Name + ".conns.open"),
		connsTotal: r.Counter(sc.Name + ".conns.total"),
		ctx:        ctx,
		abort:      cancel,
		conns:      map[*Conn]struct{}{},
		stopping:   make(chan struct{}),
		stopped:    make(chan struct{}),
	}
}

// Context is cancelled by Close and at the end of a drain; in-flight
// work runs under it.
func (sh *Shell) Context() context.Context { return sh.ctx }

// Stopping is closed when Shutdown or Close begins; background loops
// that must not outlive the drain select on it.
func (sh *Shell) Stopping() <-chan struct{} { return sh.stopping }

// Draining reports whether Shutdown or Close has begun.
func (sh *Shell) Draining() bool {
	select {
	case <-sh.stopping:
		return true
	default:
		return false
	}
}

// ListenAndServe listens on the configured address and serves until
// Shutdown/Close.
func (sh *Shell) ListenAndServe() error {
	ln, err := net.Listen("tcp", sh.sc.Addr)
	if err != nil {
		return err
	}
	return sh.Serve(ln)
}

// Addr returns the listener's address (the resolved port for ":0"
// listeners), or nil before Serve.
func (sh *Shell) Addr() net.Addr {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.ln == nil {
		return nil
	}
	return sh.ln.Addr()
}

// Serve runs the accept loop on ln until Shutdown or Close; it owns
// the listener. The error is nil after a clean shutdown.
func (sh *Shell) Serve(ln net.Listener) error {
	sh.mu.Lock()
	if sh.Draining() {
		sh.mu.Unlock()
		ln.Close()
		return errors.New(sh.sc.Name + ": already shut down")
	}
	sh.ln = ln
	sh.mu.Unlock()

	sh.sc.Start()
	for {
		nc, err := ln.Accept()
		if err != nil {
			if sh.Draining() {
				return nil
			}
			return err
		}
		c := &Conn{sh: sh, nc: nc}
		sh.mu.Lock()
		if sh.Draining() {
			sh.mu.Unlock()
			nc.Close()
			continue
		}
		sh.conns[c] = struct{}{}
		open := len(sh.conns)
		sh.mu.Unlock()
		sh.connsTotal.Inc()
		sh.connsOpen.Set(int64(open))
		sh.wgConns.Add(1)
		go sh.serveConn(c)
	}
}

// Shutdown drains: the listener closes, connection readers wake and
// stop parsing new requests, every admitted request's response is
// written, then the front end's workers retire. It returns nil on a
// clean drain, or ctx's error after escalating to a hard Close when ctx
// expires first.
func (sh *Shell) Shutdown(ctx context.Context) error {
	for _, c := range sh.beginStop() {
		// Wake every blocked reader; each drains its own pending
		// responses before closing its socket.
		c.nc.SetReadDeadline(time.Now())
	}
	sh.ensureDrainLoop()
	select {
	case <-sh.stopped:
		return nil
	case <-ctx.Done():
		sh.Close()
		return ctx.Err()
	}
}

// Close stops immediately: in-flight work is cancelled, connections
// closed. Prefer Shutdown.
func (sh *Shell) Close() error {
	conns := sh.beginStop()
	sh.abort()
	for _, c := range conns {
		c.broken.Store(true)
		c.nc.Close()
	}
	sh.ensureDrainLoop()
	<-sh.stopped
	return nil
}

// beginStop flips the shell into draining, closes the listener, and
// returns the open connections (idempotent; later calls return the
// still-open set).
func (sh *Shell) beginStop() []*Conn {
	sh.mu.Lock()
	if !sh.Draining() {
		close(sh.stopping)
	}
	ln := sh.ln
	conns := make([]*Conn, 0, len(sh.conns))
	for c := range sh.conns {
		conns = append(conns, c)
	}
	sh.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	return conns
}

// ensureDrainLoop runs the terminal drain exactly once: wait for the
// readers (the only producers of admitted work), let the front end
// retire its queue and workers, then mark the shell stopped.
func (sh *Shell) ensureDrainLoop() {
	sh.stopOnce.Do(func() {
		go func() {
			sh.wgConns.Wait()
			sh.sc.Drain()
			sh.abort()
			close(sh.stopped)
		}()
	})
}

// serveConn is one connection's reader loop. On exit it waits for the
// connection's admitted work to be answered, then closes the socket.
func (sh *Shell) serveConn(c *Conn) {
	defer sh.wgConns.Done()
	defer func() {
		c.Pending.Wait()
		sh.sc.ConnClosed(c)
		c.nc.Close()
		sh.mu.Lock()
		delete(sh.conns, c)
		open := len(sh.conns)
		sh.mu.Unlock()
		sh.connsOpen.Set(int64(open))
	}()

	br := bufio.NewReaderSize(c.nc, readBufferSize)
	for !sh.Draining() {
		c.nc.SetReadDeadline(time.Now().Add(sh.sc.ReadTimeout))
		f, err := ReadFrame(br, sh.sc.MaxFrame)
		switch {
		case err == nil:
			sh.bytesIn.Add(int64(frameHeader + len(f.Body)))
			sh.sc.Dispatch(c, f)
			continue
		case errors.Is(err, io.EOF), errors.Is(err, os.ErrDeadlineExceeded):
			// Clean close, drain wake-up or idle timeout.
		case errors.Is(err, ErrFrameTooLarge), errors.Is(err, ErrMalformedFrame):
			// The stream cannot be resynchronised after a framing
			// fault; report and close. Closing with bytes of the bad
			// frame still unread would turn into a TCP RST that can
			// destroy the queued ERROR before the client reads it, so
			// half-close and briefly drain the peer first (the same
			// dance net/http does when rejecting a request early).
			c.ReplyErr(0, ErrCodeBadFrame, err)
			if tc, ok := c.nc.(*net.TCPConn); ok {
				tc.CloseWrite()
			}
			c.nc.SetReadDeadline(time.Now().Add(faultDrainTimeout))
			io.Copy(io.Discard, io.LimitReader(c.nc, int64(sh.sc.MaxFrame)))
		}
		return
	}
}

// ReplyErr writes an ERROR response and counts it.
func (c *Conn) ReplyErr(id uint32, code byte, err error) {
	c.sh.errs.Inc()
	c.WriteFrame(Frame{Op: OpError, ID: id, Body: EncodeError(code, err.Error())})
}

// WriteFrame serialises one response under the connection's write
// mutex. A connection whose write failed is marked broken and closed;
// later responses for it are dropped (their requests were answered as
// far as the dead peer is concerned).
func (c *Conn) WriteFrame(f Frame) {
	c.WriteBody(f.Op, f.ID, func(buf []byte) []byte { return append(buf, f.Body...) })
}

// WriteBody is WriteFrame for a body not yet encoded: body appends it
// to the pooled frame buffer — an Append* of the codec, whose layout
// walk writes the response there directly — so no body is allocated.
func (c *Conn) WriteBody(op byte, id uint32, body func(buf []byte) []byte) {
	if c.broken.Load() {
		return
	}
	c.wmu.Lock()
	if c.sh.sc.WriteTimeout > 0 {
		c.nc.SetWriteDeadline(time.Now().Add(c.sh.sc.WriteTimeout))
	}
	n, err := writeFrame(c.nc, op, id, body)
	c.wmu.Unlock()
	if err != nil {
		if c.broken.CompareAndSwap(false, true) {
			c.nc.Close()
		}
		return
	}
	c.sh.bytesOut.Add(int64(n))
}
