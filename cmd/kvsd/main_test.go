package main

import (
	"strings"
	"testing"

	"gowatchdog/internal/faultinject"
	"gowatchdog/internal/kvs"
)

func TestParseInjection(t *testing.T) {
	cases := []struct {
		in        string
		wantPoint string
		wantKind  faultinject.Kind
		wantErr   string
	}{
		{in: "kvs.flusher.write=hang", wantPoint: kvs.FaultFlushWrite, wantKind: faultinject.Hang},
		{in: "kvs.compaction.merge=error", wantPoint: kvs.FaultCompactMerge, wantKind: faultinject.Error},
		{in: "kvs.wal.append=delay", wantPoint: kvs.FaultWALAppend, wantKind: faultinject.Delay},
		{in: "kvs.listener.handle=panic", wantPoint: kvs.FaultListenerHandle, wantKind: faultinject.Panic},
		{in: "kvs.sstable.read=error", wantPoint: kvs.FaultSSTableRead, wantKind: faultinject.Error},
		// A typo'd point used to be armed and then never fire.
		{in: "kvs.flush.write=hang", wantErr: `unknown fault point "kvs.flush.write"`},
		{in: "=hang", wantErr: "unknown fault point"},
		// No kvs point fires data faults, so corrupt would arm silently.
		{in: "kvs.sstable.read=corrupt", wantErr: `unknown fault kind "corrupt"`},
		{in: "kvs.wal.append=flap", wantErr: `unknown fault kind "flap"`},
		{in: "kvs.wal.append", wantErr: "want <point>=<kind>"},
	}
	for _, tc := range cases {
		point, kind, err := parseInjection(tc.in)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("parseInjection(%q) error = %v, want containing %q", tc.in, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseInjection(%q): %v", tc.in, err)
			continue
		}
		if point != tc.wantPoint || kind != tc.wantKind {
			t.Errorf("parseInjection(%q) = %s, %v; want %s, %v", tc.in, point, kind, tc.wantPoint, tc.wantKind)
		}
	}
}

// TestParseInjectionListsEveryPoint keeps the rejection message useful: it
// names all eight of the store's fault points.
func TestParseInjectionListsEveryPoint(t *testing.T) {
	_, _, err := parseInjection("nope=hang")
	if err == nil {
		t.Fatal("unknown point accepted")
	}
	for _, p := range []string{
		kvs.FaultIndexerPut, kvs.FaultIndexerGet, kvs.FaultWALAppend, kvs.FaultFlushWrite,
		kvs.FaultCompactMerge, kvs.FaultReplSend, kvs.FaultListenerHandle, kvs.FaultSSTableRead,
	} {
		if !strings.Contains(err.Error(), p) {
			t.Errorf("rejection %q does not list %s", err, p)
		}
		if _, _, err := parseInjection(p + "=error"); err != nil {
			t.Errorf("point %s rejected: %v", p, err)
		}
	}
}
