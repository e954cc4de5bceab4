// Package sdnotify is a dependency-free client for the systemd service
// notification protocol (sd_notify(3)): short datagrams on the unixgram
// socket named by $NOTIFY_SOCKET. It exists so the watchdog stack can extend
// the paper's escalation ladder one rung past the process boundary — a
// supervised daemon proves liveness to its supervisor by feeding the external
// watchdog, and a hung or alarming daemon simply stops feeding.
//
// The contract the runtime layer builds on top (see wdruntime):
//
//	Ready    once, when the stack is serving;
//	Feed     every check interval, but only while the intrinsic watchdog
//	         verdict is healthy — the feed is gated on real health, not on
//	         the feeding goroutine being scheduled;
//	Stopping exactly once on drain, disarming the supervisor's timer so a
//	         deliberate shutdown is never mistaken for a hang;
//	Trigger  when in-process recovery gives up, demanding an immediate
//	         external restart (WATCHDOG=trigger).
//
// Every method is a no-op returning nil when the notify socket is absent, so
// daemons run unchanged outside systemd (or wdsuper).
package sdnotify

import (
	"fmt"
	"net"
	"os"
	"strconv"
	"time"
)

// EnvSocket is the environment variable naming the notify socket.
const EnvSocket = "NOTIFY_SOCKET"

// EnvWatchdogUsec is the environment variable carrying the supervisor's
// watchdog timeout in microseconds (systemd's WATCHDOG_USEC).
const EnvWatchdogUsec = "WATCHDOG_USEC"

// Notifier sends service-state datagrams to one notify socket. The zero
// value is a disabled notifier; construct with New or At. A Notifier is
// stateless and safe for concurrent use — each send opens, writes, and
// closes one unixgram connection, matching how short-lived sd_notify
// messages are sent in practice.
type Notifier struct {
	socket string
}

// New resolves the notify socket from $NOTIFY_SOCKET. When the variable is
// unset or empty the notifier is disabled and every send is a silent no-op.
func New() *Notifier { return At(os.Getenv(EnvSocket)) }

// At returns a notifier bound to an explicit socket path; tests and
// supervisors that own the socket use it. An empty path disables the
// notifier. A leading '@' names an abstract socket, per sd_notify(3).
func At(socket string) *Notifier { return &Notifier{socket: socket} }

// Enabled reports whether a notify socket is configured.
func (n *Notifier) Enabled() bool { return n != nil && n.socket != "" }

// Ready sends READY=1: the service has finished starting up.
func (n *Notifier) Ready() error { return n.send("READY=1") }

// Feed sends WATCHDOG=1, resetting the supervisor's watchdog timer.
func (n *Notifier) Feed() error { return n.send("WATCHDOG=1") }

// Stopping sends STOPPING=1: a deliberate shutdown has begun. Supervisors
// treat subsequent silence as orderly, not as a hang — this is the disarm
// half of the feed/disarm contract.
func (n *Notifier) Stopping() error { return n.send("STOPPING=1") }

// Trigger sends WATCHDOG=trigger: the service has concluded it cannot
// recover in-process and asks the supervisor to treat the watchdog as
// expired immediately.
func (n *Notifier) Trigger() error { return n.send("WATCHDOG=trigger") }

// FeedInterval returns how often the service should feed: a third of the
// supervisor's advertised $WATCHDOG_USEC timeout (the sd_watchdog_enabled(3)
// recommendation), or fallback when the variable is unset, unparsable, or
// would feed slower than the fallback already does.
func (n *Notifier) FeedInterval(fallback time.Duration) time.Duration {
	usec, err := strconv.ParseInt(os.Getenv(EnvWatchdogUsec), 10, 64)
	if err != nil || usec <= 0 {
		return fallback
	}
	third := time.Duration(usec) * time.Microsecond / 3
	if third <= 0 || (fallback > 0 && third > fallback) {
		return fallback
	}
	return third
}

// send writes one state datagram. Disabled notifiers return nil; a present
// but unreachable socket returns the dial or write error so callers can log
// it (they must not escalate on it — notification is best-effort).
func (n *Notifier) send(state string) error {
	if !n.Enabled() {
		return nil
	}
	name := n.socket
	if name[0] == '@' {
		// Abstract-namespace socket: the kernel address starts with a NUL.
		name = "\x00" + name[1:]
	}
	conn, err := net.DialUnix("unixgram", nil, &net.UnixAddr{Name: name, Net: "unixgram"})
	if err != nil {
		return fmt.Errorf("sdnotify: dial %s: %w", n.socket, err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte(state)); err != nil {
		return fmt.Errorf("sdnotify: write %s: %w", n.socket, err)
	}
	return nil
}
