package sdnotify

// Status sends a free-form STATUS= line for `systemctl status` output.
func (n *Notifier) Status(msg string) error { return n.send("STATUS=" + msg) }
