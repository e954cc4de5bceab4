package coord

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
)

// Follower applies the leader's proposal stream to its own DataTree and
// answers ping proposals, over the framed TCP protocol of sendProposal.
type Follower struct {
	ln   net.Listener
	tree *DataTree
	wg   sync.WaitGroup
	mu   sync.Mutex
	conn map[net.Conn]struct{}
	stop bool

	applied int64
}

// NewFollower listens on addr (e.g. "127.0.0.1:0").
func NewFollower(addr string) (*Follower, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	f := &Follower{ln: ln, tree: NewDataTree(), conn: make(map[net.Conn]struct{})}
	f.wg.Add(1)
	go f.acceptLoop()
	return f, nil
}

// Addr returns the proposal listener address.
func (f *Follower) Addr() string { return f.ln.Addr().String() }

// Close stops the follower.
func (f *Follower) Close() error {
	f.mu.Lock()
	f.stop = true
	for c := range f.conn {
		c.Close()
	}
	f.mu.Unlock()
	err := f.ln.Close()
	f.wg.Wait()
	return err
}

func (f *Follower) acceptLoop() {
	defer f.wg.Done()
	for {
		conn, err := f.ln.Accept()
		if err != nil {
			return
		}
		f.mu.Lock()
		if f.stop {
			f.mu.Unlock()
			conn.Close()
			return
		}
		f.conn[conn] = struct{}{}
		f.mu.Unlock()
		f.wg.Add(1)
		go f.handle(conn)
	}
}

func (f *Follower) handle(conn net.Conn) {
	defer f.wg.Done()
	defer func() {
		f.mu.Lock()
		delete(f.conn, conn)
		f.mu.Unlock()
		conn.Close()
	}()
	var hdr [4]byte
	for {
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(hdr[:])
		if n > 1<<26 || n < 1 {
			return
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(conn, payload); err != nil {
			return
		}
		if err := f.apply(payload); err != nil {
			// A proposal the follower cannot apply is acknowledged anyway;
			// divergence repair is out of scope (the leader retries convey
			// the same state).
			_ = err
		}
		if _, err := conn.Write([]byte{proposalAck}); err != nil {
			return
		}
	}
}

// apply decodes and applies one proposal.
func (f *Follower) apply(payload []byte) error {
	op := payload[0]
	rest := payload[1:]
	if len(rest) < 4 {
		return fmt.Errorf("coord: short proposal")
	}
	plen := binary.BigEndian.Uint32(rest[:4])
	rest = rest[4:]
	if uint32(len(rest)) < plen+4 {
		return fmt.Errorf("coord: short proposal path")
	}
	path := string(rest[:plen])
	rest = rest[plen:]
	dlen := binary.BigEndian.Uint32(rest[:4])
	rest = rest[4:]
	if uint32(len(rest)) != dlen {
		return fmt.Errorf("coord: short proposal data")
	}
	data := rest

	var err error
	switch op {
	case proposalPing:
		return nil // liveness probe from the watchdog; ACK only
	case proposalCreate:
		err = f.tree.Create(path, data)
	case proposalSet:
		err = f.tree.Set(path, data)
	case proposalDelete:
		err = f.tree.Delete(path)
	default:
		return fmt.Errorf("coord: unknown proposal op %d", op)
	}
	if err == nil {
		f.mu.Lock()
		f.applied++
		f.mu.Unlock()
	}
	return err
}
