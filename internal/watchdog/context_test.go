package watchdog

import (
	"testing"
	"testing/quick"
)

func TestContextStartsNotReady(t *testing.T) {
	c := NewContext()
	if c.Ready() {
		t.Fatal("fresh context reports ready")
	}
	if c.Version() != 0 {
		t.Fatal("fresh context has nonzero version")
	}
}

func TestContextPutMakesReadyAndBumpsVersion(t *testing.T) {
	c := NewContext()
	c.Put("k", "v")
	if !c.Ready() {
		t.Fatal("context not ready after Put")
	}
	if c.Version() != 1 {
		t.Fatalf("version = %d, want 1", c.Version())
	}
	if got := c.GetString("k"); got != "v" {
		t.Fatalf("GetString = %q", got)
	}
	c.Put("k", "v2")
	if c.Version() != 2 {
		t.Fatalf("version = %d, want 2", c.Version())
	}
}

func TestContextPutAllAtomicVersion(t *testing.T) {
	c := NewContext()
	c.PutAll(map[string]any{"a": 1, "b": 2})
	if c.Version() != 1 {
		t.Fatalf("PutAll bumped version to %d, want 1", c.Version())
	}
	if c.GetInt("a") != 1 || c.GetInt("b") != 2 {
		t.Fatal("PutAll values missing")
	}
}

func TestContextByteReplication(t *testing.T) {
	c := NewContext()
	src := []byte("payload")
	c.Put("data", src)
	src[0] = 'X' // mutate the main program's buffer after the hook ran
	got := c.GetBytes("data")
	if string(got) != "payload" {
		t.Fatalf("context saw main-program mutation: %q", got)
	}
	got[0] = 'Y' // mutate the checker's copy
	if again := c.GetBytes("data"); string(again) != "payload" {
		t.Fatalf("checker mutation leaked into context: %q", again)
	}
}

type replicatingBox struct{ vals []int }

func (b *replicatingBox) WDReplicate() any {
	out := make([]int, len(b.vals))
	copy(out, b.vals)
	return &replicatingBox{vals: out}
}

func TestContextReplicatorInterface(t *testing.T) {
	c := NewContext()
	box := &replicatingBox{vals: []int{1, 2, 3}}
	c.Put("box", box)
	box.vals[0] = 99
	v, _ := c.Get("box")
	stored := v.(*replicatingBox)
	if stored.vals[0] != 1 {
		t.Fatal("Replicator copy shares state with original")
	}
}

func TestReplicateKinds(t *testing.T) {
	if Replicate(nil) != nil {
		t.Fatal("Replicate(nil) != nil")
	}
	s := []string{"a", "b"}
	rs := Replicate(s).([]string)
	s[0] = "x"
	if rs[0] != "a" {
		t.Fatal("[]string not copied")
	}
	m := map[string]string{"k": "v"}
	rm := Replicate(m).(map[string]string)
	m["k"] = "changed"
	if rm["k"] != "v" {
		t.Fatal("map[string]string not copied")
	}
	mi := map[string]int64{"k": 7}
	rmi := Replicate(mi).(map[string]int64)
	mi["k"] = 8
	if rmi["k"] != 7 {
		t.Fatal("map[string]int64 not copied")
	}
	is := []int{5}
	ris := Replicate(is).([]int)
	is[0] = 6
	if ris[0] != 5 {
		t.Fatal("[]int not copied")
	}
	i64 := []int64{5}
	ri64 := Replicate(i64).([]int64)
	i64[0] = 6
	if ri64[0] != 5 {
		t.Fatal("[]int64 not copied")
	}
}

func TestContextGetIntAcceptsIntegerKinds(t *testing.T) {
	c := NewContext()
	cases := map[string]any{
		"int": int(1), "i8": int8(2), "i16": int16(3), "i32": int32(4),
		"i64": int64(5), "u": uint(6), "u8": uint8(7), "u16": uint16(8),
		"u32": uint32(9), "u64": uint64(10),
	}
	want := map[string]int64{
		"int": 1, "i8": 2, "i16": 3, "i32": 4, "i64": 5,
		"u": 6, "u8": 7, "u16": 8, "u32": 9, "u64": 10,
	}
	for k, v := range cases {
		c.Put(k, v)
	}
	for k, w := range want {
		if got := c.GetInt(k); got != w {
			t.Errorf("GetInt(%q) = %d, want %d", k, got, w)
		}
	}
	if c.GetInt("missing") != 0 {
		t.Error("GetInt(missing) != 0")
	}
	c.Put("str", "notanint")
	if c.GetInt("str") != 0 {
		t.Error("GetInt on string != 0")
	}
}

func TestContextInvalidateAndMarkReady(t *testing.T) {
	c := NewContext()
	if c.Ready() {
		t.Fatal("fresh context is ready")
	}
	c.MarkReady()
	if !c.Ready() {
		t.Fatal("MarkReady did not set ready")
	}
}

func TestContextOpTracking(t *testing.T) {
	c := NewContext()
	if _, ok := c.CurrentOp(); ok {
		t.Fatal("fresh context has a current op")
	}
	site := Site{Function: "f", Op: "write"}
	c.EnterOp(site)
	got, ok := c.CurrentOp()
	if !ok || got != site {
		t.Fatalf("CurrentOp = %v, %v", got, ok)
	}
	c.ExitOp()
	if _, ok := c.CurrentOp(); ok {
		t.Fatal("CurrentOp still set after ExitOp")
	}
}

func TestContextSnapshotIsCopy(t *testing.T) {
	c := NewContext()
	c.Put("k", "v")
	snap := c.Snapshot()
	snap["k"] = "mutated"
	if c.GetString("k") != "v" {
		t.Fatal("snapshot mutation leaked into context")
	}
}

func TestFactorySharesContextsByName(t *testing.T) {
	f := NewFactory()
	a := f.Context("flusher")
	b := f.Context("flusher")
	if a != b {
		t.Fatal("factory returned different contexts for same name")
	}
	if f.Context("other") == a {
		t.Fatal("factory shared context across names")
	}
}

// Property: replication of byte slices always yields an equal but
// independent slice.
func TestReplicateBytesProperty(t *testing.T) {
	f := func(data []byte) bool {
		r := Replicate(data).([]byte)
		if len(r) != len(data) {
			return false
		}
		for i := range data {
			if r[i] != data[i] {
				return false
			}
		}
		if len(data) > 0 {
			old := data[0]
			data[0] = old + 1
			same := r[0] == data[0]
			data[0] = old
			if same && len(data) > 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSiteString(t *testing.T) {
	if (Site{}).String() != "<unknown>" {
		t.Fatal("zero site should render <unknown>")
	}
	s := Site{Function: "kvs.flush", Op: "wal.Append", File: "wal.go", Line: 42}
	want := "kvs.flush/wal.Append@wal.go:42"
	if s.String() != want {
		t.Fatalf("String = %q, want %q", s.String(), want)
	}
	if (Site{Op: "write"}).String() != "write" {
		t.Fatalf("op-only site = %q", (Site{Op: "write"}).String())
	}
}
