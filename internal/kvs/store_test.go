package kvs

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"gowatchdog/internal/faultinject"
)

func openStore(t *testing.T, mutate func(*Config)) *Store {
	t.Helper()
	cfg := Config{Dir: t.TempDir(), FlushThresholdBytes: 1 << 30}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestSetGetDel(t *testing.T) {
	s := openStore(t, nil)
	if err := s.Set([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := s.Get([]byte("k"))
	if err != nil || !ok || string(v) != "v" {
		t.Fatalf("Get = %q %v %v", v, ok, err)
	}
	if err := s.Del([]byte("k")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Get([]byte("k")); ok {
		t.Fatal("key present after Del")
	}
}

func TestEmptyKeyRejected(t *testing.T) {
	s := openStore(t, nil)
	if err := s.Set(nil, []byte("v")); !errors.Is(err, ErrEmptyKey) {
		t.Fatalf("Set: %v", err)
	}
	if _, _, err := s.Get(nil); !errors.Is(err, ErrEmptyKey) {
		t.Fatalf("Get: %v", err)
	}
}

func TestAppendSemantics(t *testing.T) {
	s := openStore(t, nil)
	if err := s.Append([]byte("log"), []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := s.Append([]byte("log"), []byte("b")); err != nil {
		t.Fatal(err)
	}
	v, _, _ := s.Get([]byte("log"))
	if string(v) != "ab" {
		t.Fatalf("value = %q, want ab", v)
	}
}

func TestKeysRouteToCorrectPartitions(t *testing.T) {
	s := openStore(t, func(c *Config) { c.Partitions = 4 })
	// Keys spanning the byte space land in different partitions.
	keys := [][]byte{{0x01}, {0x41}, {0x81}, {0xC1}}
	seen := map[int]bool{}
	for _, k := range keys {
		p := s.partitionFor(k)
		if !p.owns(k) {
			t.Fatalf("partition %d does not own its routed key %x", p.id, k)
		}
		seen[p.id] = true
	}
	if len(seen) != 4 {
		t.Fatalf("keys did not spread across partitions: %v", seen)
	}
	// Partition manager invariant: ranges sorted ascending and contiguous.
	for i := 1; i < len(s.parts); i++ {
		if !bytes.Equal(s.parts[i-1].hi, s.parts[i].lo) {
			t.Fatalf("partitions %d/%d not contiguous", i-1, i)
		}
	}
}

func TestFlushCreatesSSTableAndPreservesReads(t *testing.T) {
	s := openStore(t, nil)
	for i := 0; i < 100; i++ {
		if err := s.Set([]byte(fmt.Sprintf("key%03d", i)), []byte(fmt.Sprintf("val%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	s.FlushAll(true)
	// At least the partition holding "key..." flushed.
	p := s.partitionFor([]byte("key000"))
	if s.TableCount(p.id) == 0 {
		t.Fatal("no SSTable after flush")
	}
	// Reads hit the SSTable now.
	v, ok, err := s.Get([]byte("key042"))
	if err != nil || !ok || string(v) != "val42" {
		t.Fatalf("Get after flush = %q %v %v", v, ok, err)
	}
	// New writes after flush still readable (fresh memtable).
	s.Set([]byte("key042"), []byte("newval"))
	v, _, _ = s.Get([]byte("key042"))
	if string(v) != "newval" {
		t.Fatalf("memtable does not shadow SSTable: %q", v)
	}
}

func TestDeleteShadowsFlushedValue(t *testing.T) {
	s := openStore(t, nil)
	s.Set([]byte("k"), []byte("v"))
	s.FlushAll(true)
	s.Del([]byte("k"))
	if _, ok, _ := s.Get([]byte("k")); ok {
		t.Fatal("tombstone did not shadow SSTable value")
	}
	// Even after the tombstone itself is flushed.
	s.FlushAll(true)
	if _, ok, _ := s.Get([]byte("k")); ok {
		t.Fatal("flushed tombstone did not shadow SSTable value")
	}
}

func TestCompactionMergesTables(t *testing.T) {
	s := openStore(t, func(c *Config) { c.CompactionMinTables = 3 })
	key := []byte("Akey")
	p := s.partitionFor(key)
	for round := 0; round < 3; round++ {
		s.Set(key, []byte(fmt.Sprintf("v%d", round)))
		s.Set([]byte(fmt.Sprintf("Aother%d", round)), []byte("x"))
		s.FlushAll(true)
	}
	if got := s.TableCount(p.id); got != 3 {
		t.Fatalf("tables before compaction = %d", got)
	}
	if err := s.CompactPartition(p.id); err != nil {
		t.Fatal(err)
	}
	if got := s.TableCount(p.id); got != 1 {
		t.Fatalf("tables after compaction = %d, want 1", got)
	}
	v, ok, err := s.Get(key)
	if err != nil || !ok || string(v) != "v2" {
		t.Fatalf("Get after compaction = %q %v %v (newest must win)", v, ok, err)
	}
	if s.Metrics().Counter("kvs.compactions").Value() != 1 {
		t.Fatal("compaction counter not incremented")
	}
}

func TestCompactionDropsTombstones(t *testing.T) {
	s := openStore(t, func(c *Config) { c.CompactionMinTables = 2 })
	s.Set([]byte("dead"), []byte("x"))
	s.FlushAll(true)
	s.Del([]byte("dead"))
	s.FlushAll(true)
	p := s.partitionFor([]byte("dead"))
	if err := s.CompactPartition(p.id); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Get([]byte("dead")); ok {
		t.Fatal("deleted key visible after compaction")
	}
}

func TestRecoveryFromWAL(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, FlushThresholdBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	s.Set([]byte("durable"), []byte("yes"))
	s.Set([]byte("gone"), []byte("x"))
	s.Del([]byte("gone"))
	// Close WITHOUT flush path: simulate crash by closing partitions only.
	s.closePartitions()

	s2, err := Open(Config{Dir: dir, FlushThresholdBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	v, ok, err := s2.Get([]byte("durable"))
	if err != nil || !ok || string(v) != "yes" {
		t.Fatalf("recovered Get = %q %v %v", v, ok, err)
	}
	if _, ok, _ := s2.Get([]byte("gone")); ok {
		t.Fatal("deleted key resurrected by recovery")
	}
}

func TestRecoveryAfterFlushAndMoreWrites(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(Config{Dir: dir, FlushThresholdBytes: 1 << 30})
	s.Set([]byte("a"), []byte("1"))
	s.FlushAll(true)
	s.Set([]byte("b"), []byte("2"))
	s.closePartitions()

	s2, err := Open(Config{Dir: dir, FlushThresholdBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for _, kv := range [][2]string{{"a", "1"}, {"b", "2"}} {
		v, ok, _ := s2.Get([]byte(kv[0]))
		if !ok || string(v) != kv[1] {
			t.Fatalf("Get(%s) = %q %v", kv[0], v, ok)
		}
	}
}

func TestScanAcrossMemtableAndTables(t *testing.T) {
	s := openStore(t, nil)
	s.Set([]byte("scan/a"), []byte("1"))
	s.Set([]byte("scan/b"), []byte("2"))
	s.FlushAll(true)
	s.Set([]byte("scan/b"), []byte("2new"))
	s.Set([]byte("scan/c"), []byte("3"))
	s.Del([]byte("scan/a"))
	entries, err := s.Scan([]byte("scan/"), []byte("scan/~"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("scan returned %d entries: %v", len(entries), entries)
	}
	if string(entries[0].Key) != "scan/b" || string(entries[0].Value) != "2new" {
		t.Fatalf("entry 0 = %s=%s", entries[0].Key, entries[0].Value)
	}
	if string(entries[1].Key) != "scan/c" {
		t.Fatalf("entry 1 = %s", entries[1].Key)
	}
	// Across the boundary at "@" between the first two of four partitions.
	s.Set([]byte("?a"), []byte("p0"))
	s.Set([]byte("@a"), []byte("p1"))
	across, err := s.Scan([]byte("?"), []byte("@b"), 0)
	if err != nil || len(across) != 2 || string(across[0].Key) != "?a" || string(across[1].Key) != "@a" {
		t.Fatalf("scan across a partition boundary = %v, %v", across, err)
	}
}

func TestInMemoryModeNeverTouchesDisk(t *testing.T) {
	s := openStore(t, func(c *Config) { c.InMemory = true })
	s.Set([]byte("k"), []byte("v"))
	if err := s.FlushPartition(0, true); err != nil {
		t.Fatal(err)
	}
	if s.TableCount(0) != 0 {
		t.Fatal("in-memory store created an SSTable")
	}
	v, ok, _ := s.Get([]byte("k"))
	if !ok || string(v) != "v" {
		t.Fatalf("Get = %q %v", v, ok)
	}
}

func TestInjectedIndexerErrorSurfaces(t *testing.T) {
	s := openStore(t, nil)
	s.Injector().Arm(FaultIndexerPut, faultinject.Fault{Kind: faultinject.Error})
	if err := s.Set([]byte("k"), []byte("v")); err == nil {
		t.Fatal("Set succeeded under injected indexer fault")
	}
	s.Injector().Disarm(FaultIndexerPut)
	if err := s.Set([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
}

func TestInjectedFlushErrorKeepsDataReadable(t *testing.T) {
	s := openStore(t, nil)
	s.Set([]byte("k"), []byte("v"))
	s.Injector().Arm(FaultFlushWrite, faultinject.Fault{Kind: faultinject.Error})
	if err := s.FlushPartition(s.partitionFor([]byte("k")).id, true); err == nil {
		t.Fatal("flush succeeded under injected fault")
	}
	// The memtable still serves the data (flush failed before rotation).
	v, ok, _ := s.Get([]byte("k"))
	if !ok || string(v) != "v" {
		t.Fatalf("data lost on failed flush: %q %v", v, ok)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	recs := []record{
		{op: opSet, key: []byte("k"), value: []byte("v")},
		{op: opDel, key: []byte("gone")},
		{op: opSet, key: []byte("empty-val"), value: nil},
	}
	for _, r := range recs {
		got, err := decodeRecord(encodeRecord(r))
		if err != nil {
			t.Fatal(err)
		}
		if got.op != r.op || !bytes.Equal(got.key, r.key) || !bytes.Equal(got.value, r.value) {
			t.Fatalf("round trip %+v -> %+v", r, got)
		}
	}
}

func TestCodecRejectsMalformed(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{99},          // bad op
		{opSet, 0xFF}, // truncated varint
		{opSet, 5, 'a', 'b'},
		append(encodeRecord(record{op: opSet, key: []byte("k")}), 'x'), // trailing
	}
	for i, c := range cases {
		if _, err := decodeRecord(c); err == nil {
			t.Errorf("case %d decoded successfully", i)
		}
	}
}

// Property: the codec round-trips arbitrary keys and values.
func TestCodecProperty(t *testing.T) {
	f := func(key, val []byte, del bool) bool {
		if len(key) == 0 {
			key = []byte("k")
		}
		op := opSet
		if del {
			op = opDel
		}
		r := record{op: op, key: key, value: val}
		got, err := decodeRecord(encodeRecord(r))
		return err == nil && bytes.Equal(got.key, r.key) && bytes.Equal(got.value, r.value)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the store agrees with a model map across random workloads,
// including a mid-stream flush and compaction.
func TestStoreModelProperty(t *testing.T) {
	type op struct {
		Del bool
		K   uint8
		V   uint16
	}
	f := func(ops []op) bool {
		dir := t.TempDir()
		s, err := Open(Config{Dir: dir, FlushThresholdBytes: 1 << 30, CompactionMinTables: 2})
		if err != nil {
			return false
		}
		defer s.Close()
		model := map[string]string{}
		for i, o := range ops {
			k := fmt.Sprintf("key%03d", o.K)
			if o.Del {
				if s.Del([]byte(k)) != nil {
					return false
				}
				delete(model, k)
			} else {
				v := fmt.Sprintf("val%05d", o.V)
				if s.Set([]byte(k), []byte(v)) != nil {
					return false
				}
				model[k] = v
			}
			if i == len(ops)/2 {
				s.FlushAll(true)
			}
		}
		s.FlushAll(true)
		s.CompactAll()
		for k, want := range model {
			v, ok, err := s.Get([]byte(k))
			if err != nil || !ok || string(v) != want {
				return false
			}
		}
		// And no deleted keys resurrect.
		for i := 0; i < 256; i++ {
			k := fmt.Sprintf("key%03d", i)
			if _, expected := model[k]; !expected {
				if _, ok, _ := s.Get([]byte(k)); ok {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
