package supervise

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"gowatchdog/internal/sdnotify"
)

// NotifyListener is the supervisor side of the sd_notify feed/disarm
// contract: it owns the NOTIFY_SOCKET a supervised child is pointed at and
// turns the datagram stream into supervision signals.
//
//	READY=1 / WATCHDOG=1   count as liveness — Probe succeeds while the last
//	                       feed is within the window. wdruntime only feeds
//	                       while its intrinsic watchdog verdict is healthy,
//	                       so feed silence means hung OR failing, not just
//	                       descheduled.
//	STOPPING=1             disarms the probe: a deliberate drain must never
//	                       be diagnosed as a hang.
//	WATCHDOG=trigger       is delivered on Trigger(): the child's in-process
//	                       recovery gave up and demands an immediate restart.
//
// Wire Probe into Config.HealthProbe, Trigger() into Config.Trigger, and
// Reset into Config.OnSpawn (a dead child's feeds must not vouch for its
// replacement).
type NotifyListener struct {
	conn      *net.UnixConn
	path      string
	window    time.Duration
	trigger   chan string
	closeOnce sync.Once

	mu       sync.Mutex
	lastFeed time.Time
	ready    bool
	stopping bool
}

// ListenNotify binds a notify socket under dir. window is the feed timeout
// advertised to the child as WATCHDOG_USEC and enforced by Probe.
func ListenNotify(dir string, window time.Duration) (*NotifyListener, error) {
	if window <= 0 {
		return nil, errors.New("supervise: notify window must be positive")
	}
	path := filepath.Join(dir, fmt.Sprintf("notify-%d.sock", os.Getpid()))
	_ = os.Remove(path)
	conn, err := net.ListenUnixgram("unixgram", &net.UnixAddr{Name: path, Net: "unixgram"})
	if err != nil {
		return nil, fmt.Errorf("supervise: listen notify: %w", err)
	}
	nl := &NotifyListener{
		conn:    conn,
		path:    path,
		window:  window,
		trigger: make(chan string, 4),
	}
	go nl.loop()
	return nl, nil
}

// Env returns the environment entries for a supervised child: the socket
// address and the watchdog timeout (sd_watchdog_enabled(3) form).
func (nl *NotifyListener) Env() []string {
	return []string{
		sdnotify.EnvSocket + "=" + nl.path,
		sdnotify.EnvWatchdogUsec + "=" + strconv.FormatInt(nl.window.Microseconds(), 10),
	}
}

// Trigger returns the channel delivering WATCHDOG=trigger causes.
func (nl *NotifyListener) Trigger() <-chan string { return nl.trigger }

// Probe implements Config.HealthProbe over the feed stream: healthy while
// the child has fed within the window, or has declared STOPPING (the disarm
// half of the contract).
func (nl *NotifyListener) Probe() error {
	nl.mu.Lock()
	defer nl.mu.Unlock()
	if nl.stopping {
		return nil
	}
	if nl.lastFeed.IsZero() {
		return errors.New("no watchdog feed yet")
	}
	if since := time.Since(nl.lastFeed); since > nl.window {
		return fmt.Errorf("last watchdog feed %v ago (window %v)", since.Round(time.Millisecond), nl.window)
	}
	return nil
}

// Reset clears per-child state; wire it into Config.OnSpawn.
func (nl *NotifyListener) Reset(int) {
	nl.mu.Lock()
	defer nl.mu.Unlock()
	nl.lastFeed = time.Time{}
	nl.ready = false
	nl.stopping = false
}

// Close stops the listener and removes the socket.
func (nl *NotifyListener) Close() error {
	var err error
	nl.closeOnce.Do(func() {
		err = nl.conn.Close()
		_ = os.Remove(nl.path)
	})
	return err
}

// loop drains datagrams until the socket closes.
func (nl *NotifyListener) loop() {
	buf := make([]byte, 4096)
	for {
		n, err := nl.conn.Read(buf)
		if err != nil {
			close(nl.trigger)
			return
		}
		nl.handle(string(buf[:n]))
	}
}

// handle applies one datagram (possibly several KEY=VALUE lines).
func (nl *NotifyListener) handle(dgram string) {
	for _, line := range strings.Split(dgram, "\n") {
		switch strings.TrimSpace(line) {
		case "READY=1":
			nl.mu.Lock()
			nl.ready = true
			nl.lastFeed = time.Now()
			nl.mu.Unlock()
		case "WATCHDOG=1":
			nl.mu.Lock()
			nl.lastFeed = time.Now()
			nl.mu.Unlock()
		case "STOPPING=1":
			nl.mu.Lock()
			nl.stopping = true
			nl.mu.Unlock()
		case "WATCHDOG=trigger":
			select {
			case nl.trigger <- CauseWatchdogTrigger:
			default: // a trigger is already pending; one restart is enough
			}
		}
	}
}
