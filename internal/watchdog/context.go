package watchdog

import (
	"sync"
	"time"
)

// Context is the state-synchronization channel between the main program and
// one checker (§3.1). Hooks in the main program Put values into the context
// when execution reaches the hook points; the driver ensures a checker's
// context is ready before executing it. Synchronization is strictly one-way:
// nothing a checker does to its context flows back into the main program.
//
// Values are replicated (deep-copied for the supported kinds) at Put time so
// that a checker mutating its payload cannot corrupt main-program data
// structures — the paper's context replication isolation mechanism (§5.1).
type Context struct {
	mu      sync.RWMutex
	vals    map[string]any
	ready   bool
	version uint64
	syncAt  time.Time // wall-clock time of the last hook update

	// current op tracking for liveness pinpointing
	opMu    sync.Mutex
	current Site
	inOp    bool
}

// NewContext returns an empty, not-ready context.
func NewContext() *Context {
	return &Context{vals: make(map[string]any)}
}

// Put stores a replicated copy of v under key and marks the context ready.
// It is called by watchdog hooks on the main program's execution path, so it
// must stay cheap: one lock, one shallow-or-deep copy.
func (c *Context) Put(key string, v any) {
	rv := Replicate(v)
	c.mu.Lock()
	c.vals[key] = rv
	c.ready = true
	c.version++
	c.syncAt = time.Now()
	c.mu.Unlock()
}

// PutAll stores every entry of m, as one atomic update.
func (c *Context) PutAll(m map[string]any) {
	c.mu.Lock()
	for k, v := range m {
		c.vals[k] = Replicate(v)
	}
	c.ready = true
	c.version++
	c.syncAt = time.Now()
	c.mu.Unlock()
}

// Get returns the value stored under key.
func (c *Context) Get(key string) (any, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	v, ok := c.vals[key]
	return v, ok
}

// GetString returns the string stored under key, or "" if absent or not a
// string.
func (c *Context) GetString(key string) string {
	v, _ := c.Get(key)
	s, _ := v.(string)
	return s
}

// GetBytes returns a copy of the byte slice stored under key.
func (c *Context) GetBytes(key string) []byte {
	v, ok := c.Get(key)
	if !ok {
		return nil
	}
	b, ok := v.([]byte)
	if !ok {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// GetInt returns the int64 stored under key (accepting any integer kind put
// through Replicate), or 0 if absent.
func (c *Context) GetInt(key string) int64 {
	v, ok := c.Get(key)
	if !ok {
		return 0
	}
	switch n := v.(type) {
	case int:
		return int64(n)
	case int8:
		return int64(n)
	case int16:
		return int64(n)
	case int32:
		return int64(n)
	case int64:
		return n
	case uint:
		return int64(n)
	case uint8:
		return int64(n)
	case uint16:
		return int64(n)
	case uint32:
		return int64(n)
	case uint64:
		return int64(n)
	default:
		return 0
	}
}

// Ready reports whether the main program has populated this context. The
// driver skips checkers whose contexts are not ready, which is what prevents
// the spurious "disk flusher broken" report when kvs runs in memory-only
// mode (§3.1).
func (c *Context) Ready() bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.ready
}

// Version returns the number of updates applied to this context. Checkers
// can use it to avoid re-checking stale state.
func (c *Context) Version() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.version
}

// MarkReady marks the context ready without storing a value, for checkers
// that need no payload.
func (c *Context) MarkReady() {
	c.mu.Lock()
	c.ready = true
	c.version++
	c.syncAt = time.Now()
	c.mu.Unlock()
}

// LastSync returns the wall-clock time of the most recent hook update (Put,
// PutAll, or MarkReady) and whether one ever happened. Observability layers
// derive a context-staleness gauge from it: a context that stopped being
// synchronized means the main program stopped exercising the mimicked code
// path (§3.1) — either legitimately idle or itself a symptom.
func (c *Context) LastSync() (time.Time, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.syncAt, !c.syncAt.IsZero()
}

// Snapshot returns a copy of all stored values, used as the report payload.
func (c *Context) Snapshot() map[string]any {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make(map[string]any, len(c.vals))
	for k, v := range c.vals {
		out[k] = v
	}
	return out
}

// EnterOp records that the checker is about to execute the vulnerable
// operation at site. If the checker then hangs, the driver's timeout report
// pinpoints this site.
func (c *Context) EnterOp(site Site) {
	c.opMu.Lock()
	c.current = site
	c.inOp = true
	c.opMu.Unlock()
}

// ExitOp clears the current-operation marker.
func (c *Context) ExitOp() {
	c.opMu.Lock()
	c.inOp = false
	c.opMu.Unlock()
}

// CurrentOp returns the site of the vulnerable operation the checker is
// executing right now, if any.
func (c *Context) CurrentOp() (Site, bool) {
	c.opMu.Lock()
	defer c.opMu.Unlock()
	return c.current, c.inOp
}

// Replicator lets context values control their own replication. Types stored
// in contexts that are mutable should implement it.
type Replicator interface {
	// WDReplicate returns a deep copy safe for the checker to use.
	WDReplicate() any
}

// Replicate deep-copies v for the supported kinds: byte and string slices,
// string-keyed maps of basic values, and any Replicator. Immutable kinds
// (numbers, strings, bools, time.Time) are returned as-is. Other values are
// stored by reference; callers holding such values must treat them as
// read-only inside checkers.
func Replicate(v any) any {
	switch x := v.(type) {
	case nil:
		return nil
	case Replicator:
		return x.WDReplicate()
	case []byte:
		out := make([]byte, len(x))
		copy(out, x)
		return out
	case []string:
		out := make([]string, len(x))
		copy(out, x)
		return out
	case []int:
		out := make([]int, len(x))
		copy(out, x)
		return out
	case []int64:
		out := make([]int64, len(x))
		copy(out, x)
		return out
	case map[string]string:
		out := make(map[string]string, len(x))
		for k, vv := range x {
			out[k] = vv
		}
		return out
	case map[string]int64:
		out := make(map[string]int64, len(x))
		for k, vv := range x {
			out[k] = vv
		}
		return out
	default:
		return v
	}
}

// Factory hands out named contexts shared between hooks (writers) and
// checkers (readers). It mirrors the generated ContextFactory in the paper's
// Figure 3: hooks call Factory.Context("checkerName").Put(...), and the
// driver wires the same context into the checker at registration.
type Factory struct {
	mu   sync.Mutex
	ctxs map[string]*Context
}

// NewFactory returns an empty context factory.
func NewFactory() *Factory {
	return &Factory{ctxs: make(map[string]*Context)}
}

// Context returns the context registered under name, creating it on first
// use so hooks and driver registration can run in either order.
func (f *Factory) Context(name string) *Context {
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.ctxs[name]
	if !ok {
		c = NewContext()
		f.ctxs[name] = c
	}
	return c
}
