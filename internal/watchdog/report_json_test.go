package watchdog

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestStatusTextRoundTrip proves every status survives MarshalText →
// UnmarshalText, the contract that keeps the journal, the /watchdog
// endpoint, and wdstat on one wire format.
func TestStatusTextRoundTrip(t *testing.T) {
	for s := StatusHealthy; s <= StatusSkipped; s++ {
		text, err := s.MarshalText()
		if err != nil {
			t.Fatalf("MarshalText(%v): %v", s, err)
		}
		var back Status
		if err := back.UnmarshalText(text); err != nil {
			t.Fatalf("UnmarshalText(%q): %v", text, err)
		}
		if back != s {
			t.Errorf("round trip %v -> %q -> %v", s, text, back)
		}
	}
	var bad Status
	if err := bad.UnmarshalText([]byte("melted")); err == nil {
		t.Error("UnmarshalText(melted) succeeded")
	}
	if _, err := ParseStatus("Status(42)"); err == nil {
		t.Error("ParseStatus of an out-of-range rendering succeeded")
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	rep := Report{
		Checker: "kvs.flusher",
		Status:  StatusStuck,
		Err:     errors.New("checker exceeded 6s timeout"),
		Site: Site{
			Function: "kvs.(*Flusher).flushOnce",
			Op:       "wal.Append",
			File:     "flush.go",
			Line:     42,
		},
		Payload: map[string]any{"partition": 3.0, "path": "/data/p003.sst", "dirty": true},
		Latency: 6 * time.Second,
		Time:    time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC),
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"status":"stuck"`, `"latency_ns":6000000000`, `"op":"wal.Append"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("encoded report missing %s: %s", want, data)
		}
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Checker != rep.Checker || back.Status != rep.Status ||
		back.Site != rep.Site || back.Latency != rep.Latency || !back.Time.Equal(rep.Time) {
		t.Errorf("round trip changed fields:\n got %+v\nwant %+v", back, rep)
	}
	if back.Err == nil || back.Err.Error() != rep.Err.Error() {
		t.Errorf("error round trip: got %v, want %v", back.Err, rep.Err)
	}
	if !reflect.DeepEqual(back.Payload, rep.Payload) {
		t.Errorf("payload round trip: got %v, want %v", back.Payload, rep.Payload)
	}

	// Stability: re-encoding the decoded report must reproduce the bytes.
	again, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(data) {
		t.Errorf("second encode differs:\n first %s\nsecond %s", data, again)
	}
}

// TestReportJSONOmitsEmpty keeps healthy reports compact: no error, site, or
// payload keys for the overwhelmingly common case.
func TestReportJSONOmitsEmpty(t *testing.T) {
	data, err := json.Marshal(Report{Checker: "c", Status: StatusHealthy})
	if err != nil {
		t.Fatal(err)
	}
	for _, forbidden := range []string{`"error"`, `"site"`, `"payload"`, `"latency_ns"`} {
		if strings.Contains(string(data), forbidden) {
			t.Errorf("healthy report carries %s: %s", forbidden, data)
		}
	}
}

func TestAlarmJSONRoundTrip(t *testing.T) {
	v := true
	a := Alarm{
		Report:      Report{Checker: "c", Status: StatusError, Err: errors.New("boom"), Time: time.Unix(100, 0).UTC()},
		Consecutive: 3,
		Validated:   &v,
	}
	data, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	var back Alarm
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Consecutive != 3 || back.Validated == nil || !*back.Validated {
		t.Errorf("alarm fields lost: %+v", back)
	}
	if back.Report.Status != StatusError || back.Report.Err.Error() != "boom" {
		t.Errorf("alarm report lost: %+v", back.Report)
	}
}

// TestReportStringPrintsSiteOnce checks that a report whose error already
// names the site, as an *OpError's does, prints it once, and that a report
// whose error does not still gets " at <site>".
func TestReportStringPrintsSiteOnce(t *testing.T) {
	site := Site{Function: "main.consume", Op: "uploader.upload", File: "main.go", Line: 66}
	cause := errors.New("disk full")
	for _, tc := range []struct {
		name string
		err  error
		want string
	}{
		{"op error", &OpError{Site: site, Err: cause},
			"[uploader] error: main.consume/uploader.upload@main.go:66: disk full"},
		{"decoded op error", errors.New((&OpError{Site: site, Err: cause}).Error()),
			"[uploader] error: main.consume/uploader.upload@main.go:66: disk full"},
		{"plain error", cause,
			"[uploader] error: disk full at main.consume/uploader.upload@main.go:66"},
		{"no error", nil, "[uploader] error at main.consume/uploader.upload@main.go:66"},
	} {
		r := Report{Checker: "uploader", Status: StatusError, Err: tc.err, Site: site}
		if got := r.String(); got != tc.want {
			t.Errorf("%s: String() = %q, want %q", tc.name, got, tc.want)
		}
	}
}
