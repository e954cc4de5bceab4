package wdmesh

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"gowatchdog/internal/wdmesh/wire"
)

// Transport carries gossip messages between mesh nodes. Implementations must
// honour the context deadline on Send (what is left of the round's send
// budget) and must stop invoking the handler after Close returns.
type Transport interface {
	// Send delivers msg to the named peer, or returns an error. A nil error
	// only means the message was handed to the network; with a lossy link
	// the receiver may still never see it (that is what suspicion is for).
	// The mesh reuses msg's slices for the next round's frames once Send
	// returns, so Send must not keep msg, or any slice it references, past
	// its return: marshal it, deliver it, or copy what a later delivery
	// needs.
	Send(ctx context.Context, peer string, msg *Message) error
	// SetHandler installs the inbound message callback. It is called once,
	// before any Send. The handler must not keep msg or its Known and Obs
	// slices after it returns: in process they are the sender's buffers.
	SetHandler(h func(*Message))
	// Close releases the transport (listener, connections).
	Close() error
}

// TransportStats are the wire-level counters a transport can expose; the
// mesh surfaces them through its Snapshot when the transport implements
// StatsSource.
type TransportStats struct {
	// Reconnects counts outbound connections re-established after a drop.
	Reconnects int64 `json:"reconnects"`
	// ProtocolErrors counts malformed frames survived in place: local decode
	// failures plus error answers received from peers.
	ProtocolErrors int64 `json:"protocol_errors"`
	// OversizedFrames counts inbound frames rejected by the size cap (the
	// connection survives; the sender is answered with an error frame).
	OversizedFrames int64 `json:"oversized_frames"`
}

// StatsSource is optionally implemented by transports that keep wire-level
// counters.
type StatsSource interface {
	Stats() TransportStats
}

// ErrBackingOff is returned by Send while a peer's reconnect backoff gate is
// closed: the previous dial failed recently and redialing now would just burn
// the send budget. The mesh counts it as a failed delivery like any other.
var ErrBackingOff = errors.New("wdmesh: reconnect backoff in effect")

// Reconnect backoff bounds: the first redial waits dialBackoffBase after a
// failure, doubling per consecutive failure up to dialBackoffCap.
const (
	dialBackoffBase = 250 * time.Millisecond
	dialBackoffCap  = 15 * time.Second
)

// txConn is the outbound side of one peer link: a single persistent
// connection, re-dialed on demand behind a capped exponential backoff gate.
type txConn struct {
	mu       sync.Mutex
	conn     net.Conn
	bw       *bufio.Writer
	fails    int       // consecutive dial/write failures
	nextDial time.Time // backoff gate; zero means dial freely
	dialed   bool      // a connection has succeeded before (for Reconnects)
}

// TCPTransport is the production transport: one persistent connection per
// peer carrying length-prefixed frames (see the wire package), re-dialed with
// capped exponential backoff when it drops. Peer names are dialable
// addresses, so the mesh needs no separate membership directory.
//
// Both ends keep a connection through recoverable protocol errors: an
// oversized or undecodable frame is answered with a wire.TypeError frame and
// the stream resyncs at the next boundary; only torn frames (stream cut
// mid-frame) drop the connection and engage the dialer's backoff.
type TCPTransport struct {
	ln net.Listener

	mu      sync.Mutex
	handler func(*Message)
	conns   map[string]*txConn
	inbound map[net.Conn]bool
	closed  bool
	wg      sync.WaitGroup

	reconnects  atomic.Int64
	protoErrors atomic.Int64
	oversized   atomic.Int64
}

// ListenTCP binds addr (e.g. "127.0.0.1:7946") and starts accepting inbound
// connections. The node's mesh identity should be the address peers dial.
func ListenTCP(addr string) (*TCPTransport, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wdmesh: listen %s: %w", addr, err)
	}
	t := &TCPTransport{ln: ln, conns: make(map[string]*txConn), inbound: make(map[net.Conn]bool)}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the bound listen address (useful with ":0").
func (t *TCPTransport) Addr() string { return t.ln.Addr().String() }

// SetHandler installs the inbound message callback.
func (t *TCPTransport) SetHandler(h func(*Message)) {
	t.mu.Lock()
	t.handler = h
	t.mu.Unlock()
}

// Stats exposes the wire-level counters.
func (t *TCPTransport) Stats() TransportStats {
	return TransportStats{
		Reconnects:      t.reconnects.Load(),
		ProtocolErrors:  t.protoErrors.Load(),
		OversizedFrames: t.oversized.Load(),
	}
}

func (t *TCPTransport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.inbound[conn] = true
		t.wg.Add(1)
		t.mu.Unlock()
		go t.serveConn(conn)
	}
}

// serveConn reads frames off one inbound connection until it tears or the
// transport closes. Recoverable protocol errors are answered in-stream with
// a TypeError frame; the connection survives them.
func (t *TCPTransport) serveConn(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		conn.Close()
		t.mu.Lock()
		delete(t.inbound, conn)
		t.mu.Unlock()
	}()
	br := bufio.NewReader(conn)
	for {
		typ, payload, err := wire.Read(br, wire.MaxFrame)
		switch {
		case err == nil:
		case errors.Is(err, wire.ErrTooLarge):
			t.oversized.Add(1)
			t.answerError(conn, err.Error())
			continue
		case errors.Is(err, wire.ErrBadType):
			t.protoErrors.Add(1)
			t.answerError(conn, err.Error())
			continue
		default:
			return // io.EOF (clean) or torn frame: drop the connection
		}
		if typ == wire.TypeError {
			// The peer rejected one of our frames but kept the stream.
			t.protoErrors.Add(1)
			continue
		}
		var msg Message
		if err := json.Unmarshal(payload, &msg); err != nil {
			t.protoErrors.Add(1)
			t.answerError(conn, "bad message payload")
			continue
		}
		t.mu.Lock()
		h := t.handler
		closed := t.closed
		t.mu.Unlock()
		if closed {
			return
		}
		if h != nil {
			h(&msg)
		}
	}
}

// answerError writes a protocol-error frame back to the sender, best-effort.
func (t *TCPTransport) answerError(conn net.Conn, text string) {
	_ = conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
	_ = wire.Write(conn, wire.TypeError, []byte(text))
	_ = conn.SetWriteDeadline(time.Time{})
}

// Send writes one frame on the peer's persistent connection, dialing it
// first if needed. Dial failures close a capped exponential backoff gate so
// a dead peer costs one cheap error per round, not one dial timeout.
func (t *TCPTransport) Send(ctx context.Context, peer string, msg *Message) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return errors.New("wdmesh: transport closed")
	}
	tc := t.conns[peer]
	if tc == nil {
		tc = &txConn{}
		t.conns[peer] = tc
	}
	t.mu.Unlock()

	payload, err := json.Marshal(msg)
	if err != nil {
		return err
	}

	tc.mu.Lock()
	defer tc.mu.Unlock()
	if tc.conn == nil {
		if !tc.nextDial.IsZero() && time.Now().Before(tc.nextDial) {
			return ErrBackingOff
		}
		var d net.Dialer
		conn, err := d.DialContext(ctx, "tcp", peer)
		if err != nil {
			tc.noteFailLocked()
			return err
		}
		tc.conn = conn
		tc.bw = bufio.NewWriter(conn)
		if tc.dialed {
			t.reconnects.Add(1)
		}
		tc.dialed = true
		// Drain the peer's answers (error frames) and notice when the peer
		// closes its end, so the next Send re-dials instead of writing into
		// a dead socket buffer.
		t.wg.Add(1)
		go t.drainAnswers(tc, conn)
	}
	if deadline, ok := ctx.Deadline(); ok {
		_ = tc.conn.SetWriteDeadline(deadline)
	} else {
		_ = tc.conn.SetWriteDeadline(time.Time{})
	}
	werr := wire.Write(tc.bw, wire.TypeData, payload)
	if werr == nil {
		werr = tc.bw.Flush()
	}
	if werr == nil {
		tc.fails = 0
		tc.nextDial = time.Time{}
		return nil
	}
	tc.conn.Close()
	tc.conn, tc.bw = nil, nil
	tc.noteFailLocked()
	return fmt.Errorf("wdmesh: send to %s: %w", peer, werr)
}

// noteFailLocked advances the reconnect backoff after a dial/write failure.
// Callers hold tc.mu.
func (tc *txConn) noteFailLocked() {
	backoff := dialBackoffBase << tc.fails
	if backoff > dialBackoffCap || backoff <= 0 {
		backoff = dialBackoffCap
	}
	if tc.fails < 30 {
		tc.fails++
	}
	tc.nextDial = time.Now().Add(backoff)
}

// drainAnswers reads the peer's side of an outbound connection: TypeError
// answers are counted, and any read error (peer closed, torn stream) retires
// the connection so the next Send re-dials.
func (t *TCPTransport) drainAnswers(tc *txConn, conn net.Conn) {
	defer t.wg.Done()
	br := bufio.NewReader(conn)
	for {
		typ, _, err := wire.Read(br, wire.MaxFrame)
		if err != nil {
			if errors.Is(err, wire.ErrTooLarge) || errors.Is(err, wire.ErrBadType) {
				t.protoErrors.Add(1)
				continue
			}
			break
		}
		if typ == wire.TypeError {
			t.protoErrors.Add(1)
		}
	}
	tc.mu.Lock()
	if tc.conn == conn {
		tc.conn.Close()
		tc.conn, tc.bw = nil, nil
	}
	tc.mu.Unlock()
}

// Close stops the listener, closes every connection, and waits for the
// connection goroutines; handlers are no longer invoked afterwards.
func (t *TCPTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	conns := make([]*txConn, 0, len(t.conns))
	for _, tc := range t.conns {
		conns = append(conns, tc)
	}
	inbound := make([]net.Conn, 0, len(t.inbound))
	for c := range t.inbound {
		inbound = append(inbound, c)
	}
	t.mu.Unlock()
	err := t.ln.Close()
	for _, c := range inbound {
		c.Close()
	}
	for _, tc := range conns {
		tc.mu.Lock()
		if tc.conn != nil {
			tc.conn.Close()
			tc.conn, tc.bw = nil, nil
		}
		tc.mu.Unlock()
	}
	t.wg.Wait()
	return err
}

// ErrUnreachable is returned by the in-process transport for unknown peers,
// standing in for a connection-refused/black-holed node.
var ErrUnreachable = errors.New("wdmesh: peer unreachable")
