package main

import (
	"math/rand"
	"testing"
)

func TestUniformKeysSpreadOverPartitions(t *testing.T) {
	const parts = 4
	ks := newKeyspace(64 << 10)
	var hits [parts]int
	for _, k := range ks.keys {
		hits[partitionOf(k, parts)]++
	}
	for p, n := range hits {
		if share := float64(n) / float64(len(ks.keys)); share < 0.20 || share > 0.30 {
			t.Errorf("partition %d holds %.1f%% of the keys, want 20-30%%", p, 100*share)
		}
	}
}

func TestKeyAndValueRoundTrip(t *testing.T) {
	for _, i := range []int{0, 1, 4095, 199_999} {
		k := keyName(i)
		if got := keyIndex(k); got != i {
			t.Errorf("keyIndex(%q) = %d, want %d", k, got, i)
		}
		if k >= scanEnd(k) {
			t.Errorf("key %q is not below its own scan end", k)
		}
		for _, size := range []int{64, 256} {
			v := valueFor(i, 7, size)
			if len(v) != size || !checkValue(v, i, 7, size) {
				t.Errorf("valueFor(%d, 7, %d) does not check", i, size)
			}
			if checkValue(v, i, 8, size) || checkValue(v, i+1, 7, size) || checkValue(v[:size-1]+"!", i, 7, size) {
				t.Errorf("checkValue accepts a value that is not (%d, 7)", i)
			}
		}
	}
	if keyIndex("x0000001") != -1 || keyIndex("__wd__/indexer/p1") != -1 {
		t.Error("keyIndex accepts a key the generator did not build")
	}
}

func TestZipfChooserIsSkewedAndSeeded(t *testing.T) {
	const n, draws = 10_000, 200_000
	z := newZipfChooser(n, 0.99)
	count := func(seed int64) (top10, first int) {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < draws; i++ {
			switch r := z.next(rng); {
			case r == 0:
				first++
				top10++
			case r < 10:
				top10++
			}
		}
		return
	}
	top10, first := count(1)
	// Under zipf(0.99) over 10k items rank 0 draws about 10% and the top ten
	// about 30%; uniform would give 0.01% and 0.1%.
	if share := float64(first) / draws; share < 0.07 || share > 0.13 {
		t.Errorf("rank 0 drew %.1f%%, want about 10%%", 100*share)
	}
	if share := float64(top10) / draws; share < 0.25 || share > 0.35 {
		t.Errorf("top ten drew %.1f%%, want about 30%%", 100*share)
	}
	if again, _ := count(1); again != top10 {
		t.Error("the same seed drew a different sequence")
	}
}

func TestOpStreamShardsKeysAndKeepsAnExactModel(t *testing.T) {
	const conns = 3
	ks := newKeyspace(1000)
	m := mix{get: 70, set: 25, scan: 5}
	for conn := 0; conn < conns; conn++ {
		s := newOpStream(42, ks, conn, conns, m, conn%2 == 1, 64, 1)
		last := map[int]uint32{}
		var kinds [numOpKinds]int
		for i := 0; i < 20_000; i++ {
			o := s.next()
			kinds[o.kind]++
			if o.key%conns != conn {
				t.Fatalf("connection %d generated key %d, which connection %d owns", conn, o.key, o.key%conns)
			}
			want, seen := last[o.key]
			if !seen {
				want = 1
			}
			switch o.kind {
			case opSet:
				if o.ver != want+1 {
					t.Fatalf("set of key %d writes version %d after %d", o.key, o.ver, want)
				}
				last[o.key] = o.ver
			case opGet:
				if o.ver != want {
					t.Fatalf("get of key %d expects version %d, model has %d", o.key, o.ver, want)
				}
			}
		}
		if g := float64(kinds[opGet]) / 20_000; g < 0.67 || g > 0.73 {
			t.Errorf("connection %d: %.1f%% gets, want about 70%%", conn, 100*g)
		}
	}
	a, b := newOpStream(7, ks, 0, conns, m, false, 64, 1), newOpStream(7, ks, 0, conns, m, false, 64, 1)
	for i := 0; i < 1000; i++ {
		if a.next() != b.next() {
			t.Fatal("the same seed generated a different stream")
		}
	}
}
