package kvs

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"gowatchdog/internal/faultinject"
)

func startServer(t *testing.T, mutate func(*Config)) (*Server, *Store) {
	t.Helper()
	s := openStore(t, mutate)
	srv, err := Serve("127.0.0.1:0", s)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, s
}

func dialClient(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestServerSetGetDelOverTCP(t *testing.T) {
	srv, _ := startServer(t, nil)
	c := dialClient(t, srv.Addr())
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := c.Set("greeting", "hello world"); err != nil {
		t.Fatal(err)
	}
	v, err := c.Get("greeting")
	if err != nil || v != "hello world" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if err := c.Del("greeting"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("greeting"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after Del: %v", err)
	}
}

func TestServerAppendAndScan(t *testing.T) {
	srv, _ := startServer(t, nil)
	c := dialClient(t, srv.Addr())
	c.Set("s/a", "1")
	c.Set("s/b", "2")
	c.Append("s/b", "2")
	got, err := c.Scan("s/", "s/~", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got["s/a"] != "1" || got["s/b"] != "22" {
		t.Fatalf("Scan = %v", got)
	}
	limited, err := c.Scan("s/", "s/~", 1)
	if err != nil || len(limited) != 1 {
		t.Fatalf("limited scan = %v, %v", limited, err)
	}
}

func TestServerStats(t *testing.T) {
	srv, _ := startServer(t, nil)
	c := dialClient(t, srv.Addr())
	c.Set("k", "v")
	c.Get("k")
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats["kvs.mutations"] < 1 {
		t.Fatalf("mutations stat = %v", stats["kvs.mutations"])
	}
	if stats["kvs.requests"] < 2 {
		t.Fatalf("requests stat = %v", stats["kvs.requests"])
	}
}

func TestServerErrorResponses(t *testing.T) {
	srv, _ := startServer(t, nil)
	c := dialClient(t, srv.Addr())
	cases := []struct {
		line string
		want string
	}{
		{"SET", "ERR"},
		{"SET keyonly", "ERR"},
		{"GET", "ERR"},
		{"DEL", "ERR"},
		{"SCAN a b", "ERR"},
		{"SCAN a b x", "ERR"},
		{"BOGUS", "ERR"},
	}
	for _, tc := range cases {
		resp, err := c.roundTrip(tc.line)
		if err != nil {
			t.Fatalf("%q: %v", tc.line, err)
		}
		if !strings.HasPrefix(resp, tc.want) {
			t.Errorf("%q -> %q, want %s prefix", tc.line, resp, tc.want)
		}
	}
}

func TestServerInjectedHandlerFault(t *testing.T) {
	srv, s := startServer(t, nil)
	c := dialClient(t, srv.Addr())
	s.Injector().Arm(FaultListenerHandle, faultinject.Fault{Kind: faultinject.Error})
	if err := c.Ping(); err == nil {
		t.Fatal("Ping succeeded under injected handler fault")
	}
	s.Injector().Disarm(FaultListenerHandle)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}

func TestServerConcurrentClients(t *testing.T) {
	srv, _ := startServer(t, nil)
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := Dial(srv.Addr(), 5*time.Second)
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			for i := 0; i < 50; i++ {
				k := fmt.Sprintf("w%d/k%d", w, i)
				if err := c.Set(k, "v"); err != nil {
					errCh <- err
					return
				}
				if _, err := c.Get(k); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
}

func TestReplicationEndToEnd(t *testing.T) {
	// Replica store + server.
	replicaStore := openStore(t, func(c *Config) { c.Dir = t.TempDir() })
	rs, err := ServeReplica("127.0.0.1:0", replicaStore)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rs.Close() })

	primary := openStore(t, func(c *Config) { c.ReplicaAddr = rs.Addr() })
	primary.Start()

	primary.Set([]byte("replicated"), []byte("yes"))
	primary.Set([]byte("deleted"), []byte("x"))
	primary.Del([]byte("deleted"))

	deadline := time.Now().Add(5 * time.Second)
	for {
		v, ok, _ := replicaStore.Get([]byte("replicated"))
		_, delOK, _ := replicaStore.Get([]byte("deleted"))
		if ok && string(v) == "yes" && !delOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replication did not converge: ok=%v v=%q delOK=%v", ok, v, delOK)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The replica applies a record before the primary reads its ack, so the
	// ack count can trail the converged replica briefly.
	acks := primary.Metrics().Counter("kvs.repl.acks")
	for acks.Value() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("acks = %d, want 3", acks.Value())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestReplicationSurvivesReplicaRestart(t *testing.T) {
	replicaStore := openStore(t, nil)
	rs, err := ServeReplica("127.0.0.1:0", replicaStore)
	if err != nil {
		t.Fatal(err)
	}
	addr := rs.Addr()

	primary := openStore(t, func(c *Config) { c.ReplicaAddr = addr })
	primary.Start()
	primary.Set([]byte("one"), []byte("1"))
	waitReplicated(t, replicaStore, "one", "1")

	// Kill the replica server; primary sends fail and drop.
	rs.Close()
	primary.Set([]byte("lost"), []byte("x"))
	time.Sleep(50 * time.Millisecond)

	// Restart on the same address.
	rs2, err := ServeReplica(addr, replicaStore)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	t.Cleanup(func() { rs2.Close() })
	primary.Set([]byte("two"), []byte("2"))
	waitReplicated(t, replicaStore, "two", "2")
}

func waitReplicated(t *testing.T, s *Store, key, want string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		v, ok, _ := s.Get([]byte(key))
		if ok && string(v) == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("key %q never replicated", key)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestReplicationQueueDropWhenFull(t *testing.T) {
	// No replica listening: sender blocks on dial failures while the queue
	// fills; excess records are dropped, not blocking writers.
	primary := openStore(t, func(c *Config) { c.ReplicaAddr = "127.0.0.1:1" })
	// Note: replicator not started, so the queue only drains into nothing.
	for i := 0; i < 2000; i++ {
		if err := primary.Set([]byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if primary.Metrics().Counter("kvs.repl.dropped").Value() == 0 {
		t.Fatal("expected drops with full replication queue")
	}
}
