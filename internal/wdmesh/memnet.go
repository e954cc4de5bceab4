package wdmesh

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"gowatchdog/internal/clock"
	"gowatchdog/internal/faultinject"
)

// LinkPoint names the directional fault point for messages flowing from one
// node to another in a MemNetwork. Arming faultinject.Drop on
// LinkPoint("a","b") models a one-way partition: a's sends to b vanish
// silently while b's sends to a still arrive.
func LinkPoint(from, to string) string {
	return "mesh.link." + from + ">" + to
}

// MemNetwork is an in-process message hub used by tests and seeded campaigns.
// Every directional link passes through a faultinject network point, so
// campaigns can drop, delay, duplicate, or error messages deterministically
// without real sockets.
type MemNetwork struct {
	clk clock.Clock
	inj *faultinject.Injector

	mu    sync.Mutex
	nodes map[string]*MemTransport
	wg    sync.WaitGroup // delayed deliveries in flight
}

// NewMemNetwork returns a hub delivering through inj's link points. inj may
// be nil for a fault-free network.
func NewMemNetwork(clk clock.Clock, inj *faultinject.Injector) *MemNetwork {
	if clk == nil {
		clk = clock.Real()
	}
	return &MemNetwork{clk: clk, inj: inj, nodes: make(map[string]*MemTransport)}
}

// Node returns (creating if needed) the transport for the named node.
func (n *MemNetwork) Node(name string) *MemTransport {
	n.mu.Lock()
	defer n.mu.Unlock()
	if t, ok := n.nodes[name]; ok {
		return t
	}
	t := &MemTransport{net: n, name: name}
	n.nodes[name] = t
	return t
}

// Detach removes a node from the hub entirely: sends to it fail with
// ErrUnreachable, modelling a crashed or fully partitioned process.
func (n *MemNetwork) Detach(name string) {
	n.mu.Lock()
	delete(n.nodes, name)
	n.mu.Unlock()
}

// MemTransport is one node's endpoint on a MemNetwork.
type MemTransport struct {
	net  *MemNetwork
	name string

	mu      sync.Mutex
	handler func(*Message)
	closed  bool
}

// Name returns the node name this endpoint was registered under.
func (t *MemTransport) Name() string { return t.name }

// SetHandler installs the inbound message callback.
func (t *MemTransport) SetHandler(h func(*Message)) {
	t.mu.Lock()
	t.handler = h
	t.mu.Unlock()
}

// Send routes msg through the directional link fault point to the peer's
// handler. Drop consumes the message while reporting success (the silent
// loss); Error surfaces to the caller; Delay defers delivery without
// blocking the sender; Duplicate delivers twice.
func (t *MemTransport) Send(ctx context.Context, peer string, msg *Message) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	t.net.mu.Lock()
	dst, ok := t.net.nodes[peer]
	t.net.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnreachable, peer)
	}
	copies := 1
	if inj := t.net.inj; inj != nil {
		out := inj.FireNet(LinkPoint(t.name, peer))
		switch {
		case out.Err != nil:
			return out.Err
		case out.Drop:
			return nil
		case out.Duplicate:
			copies = 2
		case out.Delay > 0:
			// The sender may reuse msg's slices once Send returns, so a
			// delivery that outlives Send carries its own copy of them.
			late := *msg
			late.Self.Abnormal = slices.Clone(msg.Self.Abnormal)
			late.Known = slices.Clone(msg.Known)
			for i := range late.Known {
				late.Known[i].Abnormal = slices.Clone(late.Known[i].Abnormal)
			}
			late.Obs = slices.Clone(msg.Obs)
			t.net.wg.Add(1)
			go func() {
				defer t.net.wg.Done()
				t.net.clk.Sleep(out.Delay)
				dst.handle(&late)
			}()
			return nil
		}
	}
	for i := 0; i < copies; i++ {
		dst.handle(msg)
	}
	return nil
}

func (t *MemTransport) handle(msg *Message) {
	t.mu.Lock()
	h := t.handler
	closed := t.closed
	t.mu.Unlock()
	if closed || h == nil {
		return
	}
	h(msg)
}

// Close detaches the node from the hub and stops handler invocations.
func (t *MemTransport) Close() error {
	t.mu.Lock()
	t.closed = true
	t.mu.Unlock()
	t.net.Detach(t.name)
	return nil
}
