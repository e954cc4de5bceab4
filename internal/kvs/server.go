package kvs

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"strconv"
	"sync"

	"gowatchdog/internal/gauge"
)

// Wire-protocol limits and hot-path tuning.
const (
	// maxLineLen bounds one request line; longer lines are answered with
	// "ERR line too long" and discarded, keeping the connection usable.
	maxLineLen = 1 << 20
	// readBufSize is the per-connection read buffer; lines that fit are
	// parsed in place with zero copies.
	readBufSize = 64 << 10
	// respQueueDepth bounds the per-connection response queue joining the
	// reader and writer goroutines. A full queue backpressures the reader.
	respQueueDepth = 512
)

// respPool recycles response buffers between the reader (which fills them)
// and the writer (which releases them after the flush).
var respPool = sync.Pool{New: func() any { return make([]byte, 0, 256) }}

// Server exposes a Store over a line-based TCP protocol:
//
//	SET <key> <value>      -> OK | ERR <msg>
//	GET <key>              -> VALUE <value> | NOT_FOUND | ERR <msg>
//	DEL <key>              -> OK | ERR <msg>
//	APPEND <key> <value>   -> OK | ERR <msg>
//	SCAN <start> <end> <n> -> COUNT <k> followed by k "<key> <value>" lines
//	                          ("-" means unbounded start/end, n=0 unlimited)
//	PING                   -> PONG
//	STATS                  -> COUNT <k> followed by k "<name> <value>" lines
//
// Keys must not contain spaces; values run to end of line.
//
// The protocol is pipelined: each connection runs a reader goroutine that
// parses and executes requests and a writer goroutine that drains a bounded
// response queue, batching one Flush per readable burst — many requests can
// be in flight on one connection (see Client.Pipeline).
//
// Under SyncGroup the reader never waits for the disk: a SET or DEL is
// appended to the WAL and its response queued with a commit ticket, and the
// writer waits for the ticket before it writes that response — so a run of
// pipelined writes shares one fsync, and no write is acknowledged before the
// fsync that covers it returns. Responses leave in request order, and before
// any command that reads state the reader waits for the connection's own
// outstanding writes, so each connection still sees its requests take effect
// in program order.
type Server struct {
	ln    net.Listener
	store *Store
	wg    sync.WaitGroup
	mu    sync.Mutex
	conns map[net.Conn]struct{}
	stop  bool

	// Cached hot-path metrics: registry lookups are off the request path.
	requestsC *gauge.Counter
	connsG    *gauge.Gauge
}

// Serve listens on addr and dispatches requests against store.
func Serve(addr string, store *Store) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		ln:        ln,
		store:     store,
		conns:     make(map[net.Conn]struct{}),
		requestsC: store.mets.Counter("kvs.requests"),
		connsG:    store.mets.Gauge("kvs.conns"),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and closes live connections.
func (s *Server) Close() error {
	s.mu.Lock()
	s.stop = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.stop {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.connsG.Set(float64(len(s.conns)))
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handle(conn)
	}
}

// response is one element of a connection's response queue.
type response struct {
	buf []byte
	// ticket is set on a logged SET or DEL: the writer finishes the mutation
	// before it answers, and answers ERR if the commit failed.
	ticket commitTicket
}

// session is the reader-side state of one connection.
type session struct {
	srv *Server
	// unawaited holds, per partition, the commit batch of this connection's
	// newest write, until the reader waits for it. A partition commits its
	// batches in order, so that one covers all the connection's earlier
	// writes there.
	unawaited []*commitBatch
	// ticket is exec's second result: set when the request it just ran is a
	// logged write, for handle to queue with the response.
	ticket commitTicket
}

// barrier waits until every write this connection has issued is committed
// (or has failed): what a command that reads state runs first, so the
// connection reads its own writes. The writer reports each write's outcome.
func (c *session) barrier() {
	for i, b := range c.unawaited {
		if b != nil {
			c.srv.store.awaitCommit(b)
			c.unawaited[i] = nil
		}
	}
}

// handle is the per-connection reader: it parses request lines in place,
// executes them, and enqueues response buffers for the writer goroutine.
func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.connsG.Set(float64(len(s.conns)))
		s.mu.Unlock()
		conn.Close()
	}()

	out := make(chan response, respQueueDepth)
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go s.writeLoop(conn, out, &writerWG)
	defer writerWG.Wait()
	defer close(out)

	c := &session{srv: s, unawaited: make([]*commitBatch, len(s.store.parts))}
	r := bufio.NewReaderSize(conn, readBufSize)
	var long []byte // scratch for lines longer than the read buffer
	for {
		line, err := readLine(r, &long)
		switch err {
		case nil:
		case errLineTooLong:
			// Answer instead of silently dropping the connection; readLine
			// already advanced past the oversized line, so the next read
			// starts at a request boundary.
			out <- response{buf: append(respPool.Get().([]byte)[:0], "ERR line too long\n"...)}
			continue
		default:
			return // EOF or broken connection
		}
		c.ticket = commitTicket{}
		buf := c.exec(line, respPool.Get().([]byte)[:0])
		out <- response{buf: buf, ticket: c.ticket}
	}
}

// writeLoop drains the response queue into the connection, flushing once
// per burst: responses are written back-to-back while more are queued and
// the buffered writer is flushed only when the queue momentarily empties, or
// when the next response has to wait for the disk. It finishes every queued
// mutation even on a broken connection, so no ticket is left without a
// waiter.
func (s *Server) writeLoop(conn net.Conn, out <-chan response, wg *sync.WaitGroup) {
	defer wg.Done()
	w := bufio.NewWriterSize(conn, readBufSize)
	broken := false
	for r := range out {
		buf := r.buf
		if t := r.ticket; t.batch != nil {
			if !broken && w.Buffered() > 0 && !t.batch.committed() {
				// Earlier answers do not wait for this one's fsync.
				if err := w.Flush(); err != nil {
					broken = true
					conn.Close()
				}
			}
			if err := s.store.finishMutation(t); err != nil {
				buf = appendErr(buf[:0], err.Error())
			}
		}
		if !broken {
			if _, err := w.Write(buf); err != nil {
				broken = true
				conn.Close() // unblock the reader; keep draining the queue
			} else if len(out) == 0 {
				if err := w.Flush(); err != nil {
					broken = true
					conn.Close()
				}
			}
		}
		respPool.Put(buf[:0])
	}
	if !broken {
		w.Flush()
	}
}

// errLineTooLong reports a request line exceeding maxLineLen.
var errLineTooLong = fmt.Errorf("kvs: line longer than %d bytes", maxLineLen)

// readLine returns the next newline-terminated line without its terminator.
// Lines that fit the reader's buffer are returned as a view into it (valid
// until the next read); longer ones are accumulated into *long up to
// maxLineLen. An overlong line yields errLineTooLong with the stream
// already advanced past its newline, so the caller resumes at the next
// request boundary without discarding anything further.
func readLine(r *bufio.Reader, long *[]byte) ([]byte, error) {
	slice, err := r.ReadSlice('\n')
	if err == nil {
		return chompLine(slice), nil
	}
	if err != bufio.ErrBufferFull {
		return nil, err
	}
	acc := (*long)[:0]
	for {
		acc = append(acc, slice...)
		if len(acc) > maxLineLen {
			*long = acc[:0]
			return nil, drainLine(r)
		}
		slice, err = r.ReadSlice('\n')
		if err == nil {
			acc = append(acc, slice...)
			// The final chunk can push a line past the cap even though
			// every intermediate check passed.
			if len(chompLine(acc)) > maxLineLen {
				*long = acc[:0]
				return nil, errLineTooLong
			}
			*long = acc
			return chompLine(acc), nil
		}
		if err != bufio.ErrBufferFull {
			return nil, err
		}
	}
}

// drainLine consumes input through the end of the current (oversized) line
// and reports errLineTooLong, or the transport error that cut it short.
func drainLine(r *bufio.Reader) error {
	for {
		_, err := r.ReadSlice('\n')
		switch err {
		case nil:
			return errLineTooLong
		case bufio.ErrBufferFull:
			continue
		default:
			return err
		}
	}
}

// chompLine strips the trailing \n and an optional \r.
func chompLine(b []byte) []byte {
	if n := len(b); n > 0 && b[n-1] == '\n' {
		b = b[:n-1]
	}
	if n := len(b); n > 0 && b[n-1] == '\r' {
		b = b[:n-1]
	}
	return b
}

// cutSpace splits b at the first space.
func cutSpace(b []byte) (before, after []byte, found bool) {
	if i := bytes.IndexByte(b, ' '); i >= 0 {
		return b[:i], b[i+1:], true
	}
	return b, nil, false
}

// cmdIs reports whether tok equals the ASCII-uppercase command name want,
// case-insensitively and without allocating.
func cmdIs(tok []byte, want string) bool {
	if len(tok) != len(want) {
		return false
	}
	for i := 0; i < len(tok); i++ {
		c := tok[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		if c != want[i] {
			return false
		}
	}
	return true
}

// exec executes one request line and appends the full response (newline-
// terminated, possibly multi-line) to dst. A SET or DEL still waiting for
// its fsync answers OK and leaves its commit ticket in c.ticket. line may
// point into the read buffer; exec never retains it past the call (the
// store copies what it keeps).
func (c *session) exec(line []byte, dst []byte) []byte {
	s := c.srv
	s.requestsC.Inc()
	// Listener capture rides the shared sampled-hook path, so watchdog
	// context sync costs nothing on the per-request path.
	//wdlint:ignore contextsync listener health is covered by the kvs.signal.* checkers; this capture exists for failure-report payloads
	s.store.sampledHook("kvs.listener", &s.store.listenerHookSeq, func() map[string]any {
		return map[string]any{"last_command": string(line)}
	})
	if err := s.store.inj.Fire(FaultListenerHandle); err != nil {
		return appendErr(dst, err.Error())
	}
	cmd, rest, _ := cutSpace(line)
	switch {
	case cmdIs(cmd, "GET"):
		if len(rest) == 0 {
			return append(dst, "ERR usage: GET <key>\n"...)
		}
		c.barrier()
		v, ok, err := s.store.Get(rest)
		if err != nil {
			return appendErr(dst, err.Error())
		}
		if !ok {
			return append(dst, "NOT_FOUND\n"...)
		}
		dst = append(dst, "VALUE "...)
		dst = append(dst, v...)
		return append(dst, '\n')
	case cmdIs(cmd, "SET"):
		key, val, ok := cutSpace(rest)
		if !ok || len(key) == 0 {
			return append(dst, "ERR usage: SET <key> <value>\n"...)
		}
		return c.mutate(record{op: opSet, key: key, value: val}, dst)
	case cmdIs(cmd, "DEL"):
		if len(rest) == 0 {
			return append(dst, "ERR usage: DEL <key>\n"...)
		}
		return c.mutate(record{op: opDel, key: rest}, dst)
	case cmdIs(cmd, "APPEND"):
		key, val, ok := cutSpace(rest)
		if !ok || len(key) == 0 {
			return append(dst, "ERR usage: APPEND <key> <value>\n"...)
		}
		c.barrier()
		if err := s.store.Append(key, val); err != nil {
			return appendErr(dst, err.Error())
		}
		return append(dst, "OK\n"...)
	case cmdIs(cmd, "PING"):
		return append(dst, "PONG\n"...)
	case cmdIs(cmd, "SCAN"):
		c.barrier()
		return s.execScan(rest, dst)
	case cmdIs(cmd, "STATS"):
		c.barrier()
		return s.execStats(dst)
	default:
		return append(dst, "ERR unknown command\n"...)
	}
}

// mutate logs one SET or DEL and answers OK, subject to the commit ticket
// it leaves in c.ticket.
func (c *session) mutate(rec record, dst []byte) []byte {
	t, err := c.srv.store.appendMutation(rec, true)
	if err != nil {
		return appendErr(dst, err.Error())
	}
	if t.batch != nil {
		c.unawaited[t.batch.p.id] = t.batch
		c.ticket = t
	}
	return append(dst, "OK\n"...)
}

func appendErr(dst []byte, msg string) []byte {
	dst = append(dst, "ERR "...)
	dst = append(dst, msg...)
	return append(dst, '\n')
}

func (s *Server) execScan(rest, dst []byte) []byte {
	f0, tail, ok1 := cutSpace(rest)
	f1, f2, ok2 := cutSpace(tail)
	if !ok1 || !ok2 || len(f2) == 0 || bytes.IndexByte(f2, ' ') >= 0 {
		return append(dst, "ERR usage: SCAN <start|-> <end|-> <limit>\n"...)
	}
	var start, end []byte
	if !bytes.Equal(f0, []byte("-")) {
		start = f0
	}
	if !bytes.Equal(f1, []byte("-")) {
		end = f1
	}
	limit, err := strconv.Atoi(string(f2))
	if err != nil || limit < 0 {
		return append(dst, "ERR bad limit\n"...)
	}
	entries, err := s.store.Scan(start, end, limit)
	if err != nil {
		return appendErr(dst, err.Error())
	}
	dst = append(dst, "COUNT "...)
	dst = strconv.AppendInt(dst, int64(len(entries)), 10)
	dst = append(dst, '\n')
	for _, e := range entries {
		dst = append(dst, e.Key...)
		dst = append(dst, ' ')
		dst = append(dst, e.Value...)
		dst = append(dst, '\n')
	}
	return dst
}

func (s *Server) execStats(dst []byte) []byte {
	snap := s.store.mets.Snapshot()
	names := s.store.mets.Names()
	dst = append(dst, "COUNT "...)
	dst = strconv.AppendInt(dst, int64(len(names)), 10)
	dst = append(dst, '\n')
	for _, n := range names {
		dst = append(dst, n...)
		dst = append(dst, ' ')
		dst = strconv.AppendFloat(dst, snap[n], 'g', -1, 64)
		dst = append(dst, '\n')
	}
	return dst
}
