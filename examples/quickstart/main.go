// Quickstart: wrap a toy service with an intrinsic watchdog in ~60 lines.
//
// The service is a queue consumer whose "upload" step can wedge. A mimic
// checker shares its fate: it executes the same vulnerable operation with
// state synchronized through a hook, so when the upload path breaks the
// checker breaks the same way — and the driver pinpoints the operation.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"gowatchdog/internal/watchdog"
	"gowatchdog/internal/wdruntime"
)

// uploader simulates a flaky remote dependency shared by the main program
// and the mimic checker (same environment, shared fate).
type uploader struct{ healthy atomic.Bool }

func (u *uploader) upload(payload []byte) error {
	if !u.healthy.Load() {
		return errors.New("remote endpoint returns 503")
	}
	return nil
}

func main() {
	up := &uploader{}
	up.healthy.Store(true)

	// 1. One runtime per process owns the watchdog stack; checkers are
	//    registered on its driver before Start.
	rt, err := wdruntime.New(
		wdruntime.WithInterval(50*time.Millisecond),
		wdruntime.WithTimeout(500*time.Millisecond),
	)
	if err != nil {
		panic(err)
	}
	driver := rt.Driver()

	// 2. A mimic checker: re-run the vulnerable operation with the payload
	//    the hook captured, wrapped in watchdog.Op for pinpointing.
	site := watchdog.Site{Function: "main.consume", Op: "uploader.upload", File: "main.go", Line: 66}
	driver.Register(watchdog.NewChecker("uploader", func(ctx *watchdog.Context) error {
		payload := ctx.GetBytes("payload")
		return watchdog.Op(ctx, site, func() error {
			return up.upload(payload)
		})
	}))
	driver.OnAlarm(func(a watchdog.Alarm) {
		fmt.Printf("ALARM: %s\n", a.Report)
	})

	// 3. The main program executes hooks on its hot path: one-way state
	//    sync into the checker's context.
	hook := driver.Factory().Context("uploader")
	consume := func(item []byte) {
		hook.Put("payload", item) // the watchdog hook
		if err := up.upload(item); err != nil {
			// the main program may retry/absorb; the watchdog still watches
			_ = err
		}
	}

	if err := rt.Start(context.Background()); err != nil {
		panic(err)
	}
	defer rt.Close()

	fmt.Println("healthy phase: consuming items...")
	for i := 0; i < 5; i++ {
		consume([]byte(fmt.Sprintf("item-%d", i)))
		time.Sleep(60 * time.Millisecond)
	}
	rep, _ := driver.Latest("uploader")
	fmt.Printf("watchdog says: %s\n\n", rep)

	fmt.Println("breaking the remote endpoint...")
	up.healthy.Store(false)
	time.Sleep(300 * time.Millisecond)
	rep, _ = driver.Latest("uploader")
	fmt.Printf("watchdog says: %s\n", rep)
	fmt.Printf("pinpointed vulnerable operation: %s\n", rep.Site)
}
