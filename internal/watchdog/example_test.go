package watchdog_test

import (
	"errors"
	"fmt"

	"gowatchdog/internal/clock"
	"gowatchdog/internal/watchdog"
)

// endpoint is a remote dependency the service and its mimic checker share:
// when it breaks, both break the same way.
type endpoint struct{ down bool }

func (e *endpoint) upload(payload []byte) error {
	if e.down {
		return errors.New("remote endpoint returns 503")
	}
	return nil
}

// consume is the service's hot path. Its hook syncs the item one way into
// the checker's context just before the vulnerable upload.
func consume(hook *watchdog.Context, e *endpoint, item []byte) error {
	hook.Put("payload", item)
	return e.upload(item)
}

var uploadSite = watchdog.Site{Function: "watchdog_test.consume", Op: "endpoint.upload",
	File: "internal/watchdog/example_test.go", Line: 26}

// Example wraps a toy service with an intrinsic watchdog. A mimic checker
// re-runs the service's vulnerable upload on the payload the hook captured,
// so when the endpoint breaks, the checker breaks with it and the driver
// pinpoints the upload. The driver runs on a virtual clock and is stepped
// by hand, one CheckAll per check period.
func Example() {
	e := &endpoint{}
	d := watchdog.New(watchdog.WithClock(clock.NewVirtual()))
	d.Register(watchdog.NewChecker("uploader", func(ctx *watchdog.Context) error {
		payload := ctx.GetBytes("payload")
		return watchdog.Op(ctx, uploadSite, func() error { return e.upload(payload) })
	}))
	d.OnAlarm(func(a watchdog.Alarm) { fmt.Println("ALARM:", a.Report) })
	hook := d.Factory().Context("uploader")

	consume(hook, e, []byte("item-0"))
	fmt.Println(d.CheckAll()[0])

	e.down = true
	consume(hook, e, []byte("item-1")) // the service may retry; the watchdog still watches
	fmt.Println("pinpointed:", d.CheckAll()[0].Site)
	// Output:
	// [uploader] healthy
	// ALARM: [uploader] error: watchdog_test.consume/endpoint.upload@internal/watchdog/example_test.go:26: remote endpoint returns 503
	// pinpointed: watchdog_test.consume/endpoint.upload@internal/watchdog/example_test.go:26
}
