package kvs

import "testing"

// TestStoreStructuralInvariants pins properties of a healthy store that hold
// regardless of what the workload has written: the partition set is
// non-empty, the metrics registry is wired, and an idle partition passes
// checksum verification.
func TestStoreStructuralInvariants(t *testing.T) {
	s := openStore(t, nil)

	if s.Partitions() <= 0 {
		t.Fatalf("Partitions() = %d, want > 0", s.Partitions())
	}
	if s.Metrics() == nil {
		t.Fatal("Metrics() = nil, want a wired registry")
	}
	if err := s.VerifyPartition(0); err != nil {
		t.Fatalf("VerifyPartition(0) on an idle store: %v", err)
	}
}
