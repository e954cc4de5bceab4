package coord

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"gowatchdog/internal/clock"
	"gowatchdog/internal/faultinject"
	"gowatchdog/internal/gauge"
	"gowatchdog/internal/wal"
	"gowatchdog/internal/watchdog"
)

// Fault points in the leader's long-running regions.
const (
	// FaultSyncSend models the network path to the follower, fired inside
	// the commit critical section — the ZK-2201 mechanism.
	FaultSyncSend = "coord.sync.send"
	// FaultTreeApply models a defect in the final processor.
	FaultTreeApply = "coord.tree.apply"
)

// Proposal op codes on the leader→follower wire.
const (
	proposalCreate byte = 1
	proposalSet    byte = 2
	proposalDelete byte = 3
	// proposalPing is acknowledged but not applied; the watchdog's mimic
	// sync checker ships these.
	proposalPing byte = 9
)

const proposalAck = 0x06

// Request op codes accepted by Leader.Submit.
const (
	OpCreate = "create"
	OpSet    = "set"
	OpDelete = "delete"
)

// request travels through the processor pipeline.
type request struct {
	op   string
	path string
	data []byte
	zxid int64
	resp chan error
}

// ErrShutdown is returned for requests submitted after Close.
var ErrShutdown = errors.New("coord: leader shut down")

const (
	// sessionTimeout is the idle session expiry.
	sessionTimeout = 10 * time.Second
	// proposalTimeout bounds one proposal round trip: generous, like
	// ZooKeeper's, since the point of ZK-2201 is that a blocked send wedges
	// the pipeline far longer than any detector's horizon.
	proposalTimeout = 30 * time.Second
)

// LeaderConfig configures a Leader.
type LeaderConfig struct {
	// FollowerAddr is the follower's proposal listener; empty runs
	// standalone (no replication).
	FollowerAddr string
	// HeartbeatInterval is the cadence of the leader's heartbeat thread
	// (default 500ms).
	HeartbeatInterval time.Duration
	// Clock defaults to the real clock.
	Clock clock.Clock
	// Injector defaults to a disabled injector.
	Injector *faultinject.Injector
	// Metrics defaults to a private registry.
	Metrics *gauge.Registry
	// WatchdogFactory receives hook updates when set.
	WatchdogFactory *watchdog.Factory
}

// Leader is the coordination service's write path: a request-processor
// pipeline over a DataTree, with synchronous replication to one follower
// inside the commit critical section.
type Leader struct {
	cfg      LeaderConfig
	clk      clock.Clock
	inj      *faultinject.Injector
	mets     *gauge.Registry
	factory  *watchdog.Factory
	tree     *DataTree
	sessions *SessionTable

	reqCh chan *request

	commitMu sync.Mutex // ZK-2201's critical section
	connMu   sync.Mutex
	follower net.Conn
	txnLog   *wal.Log // durable transaction log; nil when not configured

	zxidMu    sync.Mutex
	nextZxid  int64
	committed int64

	// heartbeat sinks (crash failure detectors subscribed to this leader)
	hbMu    sync.Mutex
	hbSinks []func()

	stop     chan struct{}
	pipeDone chan struct{}
	hbDone   chan struct{}
	started  bool
}

// NewLeader returns an unstarted leader.
func NewLeader(cfg LeaderConfig) *Leader {
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = 500 * time.Millisecond
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real()
	}
	if cfg.Injector == nil {
		cfg.Injector = faultinject.New(cfg.Clock)
	}
	if cfg.Metrics == nil {
		cfg.Metrics = gauge.NewRegistry()
	}
	return &Leader{
		cfg:      cfg,
		clk:      cfg.Clock,
		inj:      cfg.Injector,
		mets:     cfg.Metrics,
		factory:  cfg.WatchdogFactory,
		tree:     NewDataTree(),
		sessions: NewSessionTable(cfg.Clock, sessionTimeout),
		reqCh:    make(chan *request, 1024),
		stop:     make(chan struct{}),
		pipeDone: make(chan struct{}),
		hbDone:   make(chan struct{}),
	}
}

// Tree exposes the leader's data tree (reads bypass the pipeline, as in
// ZooKeeper, which is why reads keep working during ZK-2201).
func (l *Leader) Tree() *DataTree { return l.tree }

// Sessions exposes the session table.
func (l *Leader) Sessions() *SessionTable { return l.sessions }

// Metrics returns the leader's metric registry.
func (l *Leader) Metrics() *gauge.Registry { return l.mets }

// Injector returns the leader's fault injector.
func (l *Leader) Injector() *faultinject.Injector { return l.inj }

// OnHeartbeat subscribes fn to the leader's heartbeat thread; crash failure
// detectors register their Beat method here.
func (l *Leader) OnHeartbeat(fn func()) {
	l.hbMu.Lock()
	l.hbSinks = append(l.hbSinks, fn)
	l.hbMu.Unlock()
}

// Start launches the request pipeline and the heartbeat thread.
func (l *Leader) Start() {
	if l.started {
		return
	}
	l.started = true
	go l.pipeline()
	go l.heartbeatLoop()
}

// Close shuts the leader down. A pipeline wedged in a blocked send is
// abandoned rather than awaited.
func (l *Leader) Close() {
	select {
	case <-l.stop:
	default:
		close(l.stop)
	}
	if l.started {
		select {
		case <-l.hbDone:
		case <-time.After(2 * time.Second):
		}
		select {
		case <-l.pipeDone:
		case <-time.After(2 * time.Second):
		}
	}
	l.connMu.Lock()
	if l.follower != nil {
		l.follower.Close()
		l.follower = nil
	}
	l.connMu.Unlock()
	if l.txnLog != nil {
		l.txnLog.Close()
	}
}

// OpenTxnLog attaches a durable transaction log rooted at dir, replaying
// any recovered transactions into the data tree and advancing the zxid
// counter past them. It must be called before Start.
func (l *Leader) OpenTxnLog(dir string) error {
	if l.txnLog != nil {
		return fmt.Errorf("coord: txn log already open")
	}
	maxZxid, err := l.openTxnLog(dir)
	if err != nil {
		return err
	}
	l.zxidMu.Lock()
	if maxZxid > l.nextZxid {
		l.nextZxid = maxZxid
		l.committed = maxZxid
	}
	l.zxidMu.Unlock()
	return nil
}

// heartbeatLoop is the leader's liveness thread: it beats every subscribed
// failure detector and expires idle sessions. Crucially it shares no lock
// with the write pipeline, so it keeps running during ZK-2201.
func (l *Leader) heartbeatLoop() {
	defer close(l.hbDone)
	tick := l.clk.NewTicker(l.cfg.HeartbeatInterval)
	defer tick.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-tick.C():
			l.hbMu.Lock()
			sinks := append([]func(){}, l.hbSinks...)
			l.hbMu.Unlock()
			for _, fn := range sinks {
				fn()
			}
			l.sessions.ExpireIdle()
			l.mets.Counter("coord.heartbeats").Inc()
		}
	}
}

// Submit enqueues a write request and returns a channel that delivers its
// outcome. Reads go directly to Tree().
func (l *Leader) Submit(op, path string, data []byte) <-chan error {
	resp := make(chan error, 1)
	req := &request{op: op, path: path, data: data, resp: resp}
	select {
	case <-l.stop:
		resp <- ErrShutdown
	case l.reqCh <- req:
		l.mets.Gauge("coord.queue.len").Set(float64(len(l.reqCh)))
	}
	return resp
}

// SubmitWait submits and waits up to timeout for the result.
func (l *Leader) SubmitWait(op, path string, data []byte, timeout time.Duration) error {
	resp := l.Submit(op, path, data)
	timer := l.clk.NewTimer(timeout)
	defer timer.Stop()
	select {
	case err := <-resp:
		return err
	case <-timer.C():
		return fmt.Errorf("coord: %s %s timed out after %v", op, path, timeout)
	}
}

// pipeline is the single request-processor chain: prep (assign zxid) → sync
// (replicate under the commit lock) → final (apply to the tree).
func (l *Leader) pipeline() {
	defer close(l.pipeDone)
	for {
		select {
		case <-l.stop:
			return
		case req := <-l.reqCh:
			l.mets.Gauge("coord.queue.len").Set(float64(len(l.reqCh)))
			req.resp <- l.process(req)
		}
	}
}

// process runs one request through the three processors.
func (l *Leader) process(req *request) error {
	// PrepRequestProcessor: validate and assign the zxid.
	switch req.op {
	case OpCreate, OpSet, OpDelete:
	default:
		return fmt.Errorf("coord: unknown op %q", req.op)
	}
	if err := validatePath(req.path); err != nil {
		return err
	}
	l.zxidMu.Lock()
	l.nextZxid++
	req.zxid = l.nextZxid
	l.zxidMu.Unlock()

	// SyncRequestProcessor: log durably, then replicate, inside the commit
	// critical section. ZK-2201: if the follower link degrades into a black
	// hole, the send blocks while holding commitMu, wedging every later
	// write.
	l.commitMu.Lock()
	err := l.logTxn(req)
	if err == nil {
		err = l.syncToFollower(req)
	}
	l.commitMu.Unlock()
	if err != nil {
		l.mets.Counter("coord.sync.errors").Inc()
		return err
	}

	// FinalRequestProcessor: apply to the data tree.
	if err := l.inj.Fire(FaultTreeApply); err != nil {
		return err
	}
	if err := l.applyToTree(req.op, req.path, req.data); err != nil {
		return err
	}
	l.zxidMu.Lock()
	l.committed = req.zxid
	l.zxidMu.Unlock()
	l.mets.Counter("coord.commits").Inc()
	return nil
}

func (l *Leader) applyToTree(op, path string, data []byte) error {
	switch op {
	case OpCreate:
		return l.tree.Create(path, data)
	case OpSet:
		return l.tree.Set(path, data)
	case OpDelete:
		return l.tree.Delete(path)
	default:
		return fmt.Errorf("coord: unknown op %q", op)
	}
}

// syncToFollower ships one proposal and waits for the ACK. It executes the
// watchdog hook first, then the vulnerable network send.
func (l *Leader) syncToFollower(req *request) error {
	if l.cfg.FollowerAddr == "" {
		return nil
	}
	if l.factory != nil {
		l.factory.Context("coord.sync").PutAll(map[string]any{
			"follower": l.cfg.FollowerAddr,
			"op":       req.op,
			"path":     req.path,
			"zxid":     req.zxid,
		})
	}
	// Vulnerable operation: the remote sync. The fault point models the
	// network path, shared with the mimic checker.
	if err := l.inj.Fire(FaultSyncSend); err != nil {
		return err
	}
	conn, err := l.followerConn()
	if err != nil {
		return err
	}
	if err := sendProposal(conn, proposalTimeout, proposalOp(req.op), req.path, req.data); err != nil {
		l.dropFollowerConn()
		return err
	}
	return nil
}

func proposalOp(op string) byte {
	switch op {
	case OpCreate:
		return proposalCreate
	case OpSet:
		return proposalSet
	default:
		return proposalDelete
	}
}

// followerConn returns the cached follower connection, dialing on demand.
func (l *Leader) followerConn() (net.Conn, error) {
	l.connMu.Lock()
	defer l.connMu.Unlock()
	if l.follower != nil {
		return l.follower, nil
	}
	conn, err := net.DialTimeout("tcp", l.cfg.FollowerAddr, 2*time.Second)
	if err != nil {
		return nil, fmt.Errorf("coord: dial follower: %w", err)
	}
	l.follower = conn
	return conn, nil
}

func (l *Leader) dropFollowerConn() {
	l.connMu.Lock()
	if l.follower != nil {
		l.follower.Close()
		l.follower = nil
	}
	l.connMu.Unlock()
}

// sendProposal writes one framed proposal and reads its ACK byte.
func sendProposal(conn net.Conn, timeout time.Duration, op byte, path string, data []byte) error {
	payload := make([]byte, 0, 1+4+len(path)+4+len(data))
	payload = append(payload, op)
	var l4 [4]byte
	binary.BigEndian.PutUint32(l4[:], uint32(len(path)))
	payload = append(payload, l4[:]...)
	payload = append(payload, path...)
	binary.BigEndian.PutUint32(l4[:], uint32(len(data)))
	payload = append(payload, l4[:]...)
	payload = append(payload, data...)

	conn.SetDeadline(time.Now().Add(timeout))
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := conn.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := conn.Write(payload); err != nil {
		return err
	}
	var ack [1]byte
	if _, err := io.ReadFull(conn, ack[:]); err != nil {
		return err
	}
	if ack[0] != proposalAck {
		return fmt.Errorf("coord: bad proposal ack %#x", ack[0])
	}
	return nil
}

// Zxids returns the last assigned and last committed transaction IDs; the
// gap between them is the pipeline-progress signal.
func (l *Leader) Zxids() (assigned, committed int64) {
	l.zxidMu.Lock()
	defer l.zxidMu.Unlock()
	return l.nextZxid, l.committed
}

// QueueLen returns the number of requests waiting in the pipeline.
func (l *Leader) QueueLen() int { return len(l.reqCh) }
