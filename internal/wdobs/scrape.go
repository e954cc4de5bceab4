package wdobs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// ScrapeClient fetches /watchdog snapshots from a wdobs server with an
// explicit per-attempt timeout and a single backoff-delayed retry. wdstat
// scrapes through it so a momentarily busy daemon —
// exactly the condition a watchdog inspection tool is pointed at — gets one
// second chance instead of either an instant failure or an unbounded hang.
type ScrapeClient struct {
	// Timeout bounds each attempt end-to-end (dial through body read).
	// Zero means 3s.
	Timeout time.Duration
	// Backoff is the pause before the single retry. Zero means 250ms.
	Backoff time.Duration

	// client overrides the HTTP client in tests; nil builds one from Timeout.
	client *http.Client
	// sleep overrides the backoff pause in tests; nil means time.Sleep.
	sleep func(time.Duration)
}

// NewScrapeClient returns a client with the given per-attempt timeout
// (0 = 3s default).
func NewScrapeClient(timeout time.Duration) *ScrapeClient {
	return &ScrapeClient{Timeout: timeout}
}

func (c *ScrapeClient) httpClient() *http.Client {
	if c.client != nil {
		return c.client
	}
	timeout := c.Timeout
	if timeout <= 0 {
		timeout = 3 * time.Second
	}
	return &http.Client{Timeout: timeout}
}

// RawSnapshot GETs http://addr/watchdog and returns the response body. A
// transport error or 5xx response is retried once after the backoff; a 4xx is
// a configuration problem (wrong port, wrong path) and fails immediately.
func (c *ScrapeClient) RawSnapshot(addr string) ([]byte, error) {
	url := "http://" + addr + "/watchdog"
	body, retriable, err := c.get(url)
	if err == nil || !retriable {
		return body, err
	}
	backoff := c.Backoff
	if backoff <= 0 {
		backoff = 250 * time.Millisecond
	}
	if c.sleep != nil {
		c.sleep(backoff)
	} else {
		time.Sleep(backoff)
	}
	body, _, retryErr := c.get(url)
	if retryErr != nil {
		return nil, fmt.Errorf("%w (retry after %v: %v)", err, backoff, retryErr)
	}
	return body, nil
}

// Snapshot fetches and decodes one /watchdog snapshot from addr.
func (c *ScrapeClient) Snapshot(addr string) (*Snapshot, error) {
	body, err := c.RawSnapshot(addr)
	if err != nil {
		return nil, err
	}
	var snap Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		return nil, fmt.Errorf("decode snapshot from %s: %w", addr, err)
	}
	return &snap, nil
}

// get performs one attempt; retriable reports whether a failure is worth the
// one retry (transport errors and 5xx yes, 4xx no).
func (c *ScrapeClient) get(url string) (body []byte, retriable bool, err error) {
	resp, err := c.httpClient().Get(url)
	if err != nil {
		return nil, true, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, resp.StatusCode >= 500, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		return nil, true, fmt.Errorf("GET %s: read body: %w", url, err)
	}
	return body, false, nil
}
