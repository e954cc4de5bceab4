package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"sync/atomic"
)

// The benchmark's own seeded load generator. The program under test sees
// only what this file produces: keys, values and an op stream that are a pure
// function of (seed, workload shape).

// firstBytes are the 40 first bytes a key may start with, ten from each
// quarter of the byte space. kvs.Store range-partitions on the first byte, so
// hashing a key onto this alphabet spreads uniform traffic about 25% per
// partition (kvsload's "k"+i keys all land in partition 1 of 4). None is a
// space, a newline or '_', which the wire protocol and the watchdog's
// reserved "__wd__/" namespace need.
var firstBytes = func() []byte {
	var out []byte
	for _, lo := range []byte{'0', 'a', 0xA0, 0xE0} {
		for i := byte(0); i < 10; i++ {
			out = append(out, lo+i)
		}
	}
	return out
}()

// mix64 is the splitmix64 finaliser: a cheap, well-spread hash of a key index.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// keyspace is the fixed set of keys a workload addresses.
type keyspace struct {
	keys []string
}

// keyName builds key i: a hashed first byte, then the index in decimal.
func keyName(i int) string {
	// Through a byte slice: string(b) of a single byte above 0x7f would
	// UTF-8-encode it into two bytes starting 0xc2 or 0xc3.
	return string(append([]byte{firstBytes[mix64(uint64(i))%uint64(len(firstBytes))]}, fmt.Sprintf("%07d", i)...))
}

func newKeyspace(n int) *keyspace {
	ks := &keyspace{keys: make([]string, n)}
	for i := range ks.keys {
		ks.keys[i] = keyName(i)
	}
	return ks
}

// keyIndex recovers i from a key built by keyName, or -1.
func keyIndex(key string) int {
	if len(key) != 8 {
		return -1
	}
	i, err := strconv.Atoi(key[1:])
	if err != nil || i < 0 || keyName(i)[0] != key[0] {
		return -1
	}
	return i
}

// partitionOf mirrors kvs.Store's range partitioning of the first byte over n
// partitions; only the generator's own tests and reports use it.
func partitionOf(key string, n int) int {
	return int(key[0]) * n / 256
}

// scanEnd is the exclusive upper bound of scans starting at key: the end of
// the keys sharing its first byte, so a scan never crosses into another
// first byte (or the watchdog's reserved keys).
func scanEnd(key string) string { return key[:1] + "\x7f" }

// fillPattern is the shared filler every value is cut from.
var fillPattern = func() string {
	b := make([]byte, 1024)
	for i := range b {
		b[i] = 'A' + byte(mix64(uint64(i))%26)
	}
	return string(b)
}()

const valueHeader = 16 // 8 hex digits of key index, 8 of version

// valueFor is the value the generator writes for (key index, version): a
// header naming both, then size-valueHeader filler bytes cut from fillPattern
// at an offset derived from them. size is at least valueHeader and at most
// valueHeader+512.
func valueFor(key int, ver uint32, size int) string {
	off := int(mix64(uint64(key)<<32|uint64(ver)) % 512)
	return fmt.Sprintf("%08x%08x", key, ver) + fillPattern[off:off+size-valueHeader]
}

// checkValue reports whether got is exactly valueFor(key, ver, size), without
// allocating.
func checkValue(got string, key int, ver uint32, size int) bool {
	if len(got) != size {
		return false
	}
	k, err1 := strconv.ParseUint(got[:8], 16, 32)
	v, err2 := strconv.ParseUint(got[8:16], 16, 32)
	if err1 != nil || err2 != nil || int(k) != key || uint32(v) != ver {
		return false
	}
	off := int(mix64(uint64(key)<<32|uint64(ver)) % 512)
	return got[valueHeader:] == fillPattern[off:off+size-valueHeader]
}

// valueKey returns the key index a well-formed value claims to belong to.
func valueKey(got string) (int, bool) {
	if len(got) < valueHeader {
		return 0, false
	}
	k, err := strconv.ParseUint(got[:8], 16, 32)
	return int(k), err == nil
}

// chooser picks the next item out of n.
type chooser interface {
	next(rng *rand.Rand) int
}

type uniformChooser struct{ n int }

func (u uniformChooser) next(rng *rand.Rand) int { return rng.Intn(u.n) }

// zipfChooser draws rank r out of n with probability proportional to
// 1/(r+1)^theta, by inverting a precomputed cumulative table. math/rand's
// Zipf needs an exponent above 1, and YCSB's customary skew is 0.99.
type zipfChooser struct {
	cdf []float64
}

func newZipfChooser(n int, theta float64) *zipfChooser {
	cdf := make([]float64, n)
	var sum float64
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), theta)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &zipfChooser{cdf: cdf}
}

func (z *zipfChooser) next(rng *rand.Rand) int {
	u := rng.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

type opKind uint8

const (
	opGet opKind = iota
	opSet
	opScan
	numOpKinds
)

func (k opKind) String() string { return [...]string{"get", "set", "scan"}[k] }

// mix is the request blend in relative weights.
type mix struct{ get, set, scan int }

// op is one generated request. For a get, ver is the version the model says
// the key holds; for a set, the version being written.
type op struct {
	kind opKind
	key  int
	ver  uint32
}

const scanLimit = 10

// opStream generates one connection's requests and keeps the model of what
// the store must hold. Keys are sharded over connections (key % conns ==
// conn), so every key has a single writer, a connection's requests execute in
// order, and the model is exact: a get must return precisely the last version
// this stream set.
type opStream struct {
	rng       *rand.Rand
	ks        *keyspace
	conn      int
	conns     int
	owned     int // keys this stream owns
	pick      chooser
	mix       mix
	valueSize int
	ver       []uint32 // last version set, per owned key
}

// newOpStream builds connection conn's stream. initialVer is the version
// every key already holds (1 after a preload, 0 for an empty store).
func newOpStream(seed int64, ks *keyspace, conn, conns int, m mix, zipf bool, valueSize int, initialVer uint32) *opStream {
	owned := (len(ks.keys) - conn + conns - 1) / conns
	s := &opStream{
		rng:       rand.New(rand.NewSource(seed*1_000_003 + int64(conn))),
		ks:        ks,
		conn:      conn,
		conns:     conns,
		owned:     owned,
		mix:       m,
		valueSize: valueSize,
		ver:       make([]uint32, owned),
	}
	if zipf {
		s.pick = newZipfChooser(owned, 0.99)
	} else {
		s.pick = uniformChooser{owned}
	}
	for i := range s.ver {
		s.ver[i] = initialVer
	}
	return s
}

// next generates the following request and advances the model.
func (s *opStream) next() op {
	slot := s.pick.next(s.rng)
	key := slot*s.conns + s.conn
	total := s.mix.get + s.mix.set + s.mix.scan
	switch r := s.rng.Intn(total); {
	case r < s.mix.get:
		return op{kind: opGet, key: key, ver: s.ver[slot]}
	case r < s.mix.get+s.mix.set:
		return op{kind: opSet, key: key, ver: atomic.AddUint32(&s.ver[slot], 1)}
	default:
		return op{kind: opScan, key: key}
	}
}

// unset rolls the model back after a set the server refused (detect_faults
// injects such errors on purpose): the key keeps its previous version.
func (s *opStream) unset(o op) { atomic.StoreUint32(&s.ver[o.key/s.conns], o.ver-1) }

// expected returns the version the model holds for a key this stream owns.
// Only the goroutine calling next writes the model, but the open loop checks
// answers on another one, hence the atomics.
func (s *opStream) expected(key int) (uint32, bool) {
	if key%s.conns != s.conn {
		return 0, false
	}
	return atomic.LoadUint32(&s.ver[key/s.conns]), true
}
