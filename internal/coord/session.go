package coord

import (
	"sync"
	"time"

	"gowatchdog/internal/clock"
)

// Session is one client session tracked by the leader.
type Session struct {
	// ID identifies the session.
	ID int64
	// LastSeen is the time of the most recent touch.
	LastSeen time.Time
}

// SessionTable tracks client sessions with idle expiry, mirroring
// ZooKeeper's session tracker. It is safe for concurrent use.
type SessionTable struct {
	clk     clock.Clock
	timeout time.Duration

	mu       sync.Mutex
	sessions map[int64]*Session
	nextID   int64
	expired  int64
}

// NewSessionTable returns a table expiring sessions idle longer than
// timeout.
func NewSessionTable(clk clock.Clock, timeout time.Duration) *SessionTable {
	return &SessionTable{clk: clk, timeout: timeout, sessions: make(map[int64]*Session)}
}

// Open creates a new session and returns its ID.
func (st *SessionTable) Open() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.nextID++
	id := st.nextID
	st.sessions[id] = &Session{ID: id, LastSeen: st.clk.Now()}
	return id
}

// Touch refreshes a session; it reports whether the session is live.
func (st *SessionTable) Touch(id int64) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	s, ok := st.sessions[id]
	if !ok {
		return false
	}
	s.LastSeen = st.clk.Now()
	return true
}

// Close removes a session.
func (st *SessionTable) Close(id int64) {
	st.mu.Lock()
	delete(st.sessions, id)
	st.mu.Unlock()
}

// Len returns the number of live sessions.
func (st *SessionTable) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.sessions)
}

// ExpireIdle removes sessions idle past the timeout and returns how many it
// expired. The leader's heartbeat thread calls it periodically.
func (st *SessionTable) ExpireIdle() int {
	now := st.clk.Now()
	st.mu.Lock()
	defer st.mu.Unlock()
	n := 0
	for id, s := range st.sessions {
		if now.Sub(s.LastSeen) > st.timeout {
			delete(st.sessions, id)
			st.expired++
			n++
		}
	}
	return n
}
