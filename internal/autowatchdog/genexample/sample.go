// Package sample is a miniature system used to exercise AutoWatchdog: it
// has an initialization stage, two long-running regions (a serve loop and a
// flush loop), helper functions reached along call chains, and an annotated
// custom vulnerable operation.
package sample

import wdhooks "gowatchdog/internal/autowatchdog/wdhooks"

import (
	"net"
	"os"
	"sync"
	"time"
)

// Server is a toy long-running component.
type Server struct {
	mu    sync.Mutex
	dir   string
	queue chan []byte
	stop  chan struct{}
}

// NewServer is initialization-stage code: its file I/O must NOT be treated
// as a monitored vulnerable operation.
func NewServer(dir string) (*Server, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Server{dir: dir, queue: make(chan []byte, 16), stop: make(chan struct{})}, nil
}

// Run is a long-running region: an unbounded loop draining the queue.
func (s *Server) Run(conn net.Conn) error {
	for {
		select {
		case <-s.stop:
			return nil
		case batch := <-s.queue:
			wdhooks.Capture("sample.Server_Run", map[string]any{"op": "conn.Write", "arg0": batch})
			if _, err := conn.Write(batch); err != nil {
				return err
			}
			if err := s.persist(batch); err != nil {
				return err
			}
			wdhooks.Capture("sample.Server_Run",
				//wd:vulnerable
				map[string]any{

					// persist is reached along Run's call chain; its writes count once each.
					"op": "s.compress", "arg0": batch})
			s.compress(batch)
		}
	}
}

func (s *Server) persist(batch []byte) error {
	wdhooks.Capture("sample.Server_Run", map[string]any{"op": "<expr>.Lock"})
	s.mu.Lock()
	defer s.mu.Unlock()
	wdhooks.Capture("sample.Server_Run", map[string]any{"op": "os.OpenFile"})
	f, err := os.OpenFile(s.dir+"/data.log", os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	for i := 0; i < 3; i++ {
		wdhooks.Capture("sample.Server_Run", map[string]any{
			// repeated write: reduced to one
			"op": "f.Write", "arg0": batch})
		if _, err := f.Write(batch); err != nil {
			f.Close()
			return err
		}
	}
	if _, err := f.Write([]byte{'\n'}); err != nil { // same callee: deduplicated
		f.Close()
		return err
	}
	wdhooks.Capture("sample.Server_Run", map[string]any{"op": "f.Sync"})
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// compress is a CPU-bound helper with no vulnerable operations of its own.
func (s *Server) compress(batch []byte) []byte {
	out := make([]byte, 0, len(batch))
	for _, b := range batch {
		if b != 0 {
			out = append(out, b)
		}
	}
	return out
}

// FlushLoop is a second long-running region: a condition-only loop doing
// periodic disk reads.
func (s *Server) FlushLoop(interval time.Duration) {
	done := false
	for !done {
		select {
		case <-s.stop:
			done = true
		default:
			wdhooks.Capture("sample.Server_FlushLoop", map[string]any{"op": "os.ReadFile"})
			if _, err := os.ReadFile(s.dir + "/data.log"); err != nil {
				time.Sleep(interval)
			}
		}
	}
}

// Sum is bounded computation: a three-clause loop, not a region.
func Sum(xs []int) int {
	total := 0
	for i := 0; i < len(xs); i++ {
		total += xs[i]
	}
	return total
}
