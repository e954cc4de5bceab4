package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"time"

	"gowatchdog/internal/clock"
	"gowatchdog/internal/faultinject"
	"gowatchdog/internal/watchdog"
	"gowatchdog/internal/wdmesh"
)

const (
	meshNodes      = 200 // a quick run builds meshQuickNodes instead
	meshFanout     = 3
	meshQuorum     = 2
	meshInterval   = 100 * time.Millisecond // virtual
	meshLossProb   = 0.25
	meshQuickNodes = 40
	// wdmesh's default AntiEntropyEvery, which this cluster keeps.
	antiEntropyEvery = 8
)

// countingTransport counts the frames a node sends; it is how msgs_per_round
// is measured from outside the mesh.
type countingTransport struct {
	wdmesh.Transport
	sent *atomic.Int64
}

func (t countingTransport) Send(ctx context.Context, peer string, msg *wdmesh.Message) error {
	t.sent.Add(1)
	return t.Transport.Send(ctx, peer, msg)
}

// meshCluster is 200 Step-mode nodes on an in-process network and a virtual
// clock, built here rather than through internal/campaign so the benchmark
// times wdmesh's public surface and nothing else.
type meshCluster struct {
	clk   *clock.Virtual
	names []string
	nodes []*wdmesh.Mesh
	sick  []bool
	sent  atomic.Int64
}

func buildMesh(seed int64, nodes int) (*meshCluster, error) {
	rng := rand.New(rand.NewSource(seed))
	clk := clock.NewVirtual()
	inj := faultinject.New(clk)
	inj.Seed(seed)
	net := wdmesh.NewMemNetwork(clk, inj)
	c := &meshCluster{clk: clk, names: make([]string, nodes), nodes: make([]*wdmesh.Mesh, nodes), sick: make([]bool, nodes)}
	for i := range c.names {
		c.names[i] = fmt.Sprintf("n%04d", i)
	}
	for i := range c.nodes {
		peers := make([]string, 0, nodes-1)
		for j, n := range c.names {
			if j != i {
				peers = append(peers, n)
			}
		}
		i := i
		m, err := wdmesh.New(wdmesh.Config{
			Self:       c.names[i],
			Peers:      peers,
			Interval:   meshInterval,
			Quorum:     meshQuorum,
			Fanout:     meshFanout,
			Epoch:      1,
			JitterSeed: seed + int64(i)*7919 + 1,
			Clock:      clk,
			Transport:  countingTransport{net.Node(c.names[i]), &c.sent},
			Source: func() wdmesh.Digest {
				if c.sick[i] {
					return wdmesh.Digest{Healthy: false, Worst: watchdog.StatusStuck, Abnormal: []string{"op"}}
				}
				return wdmesh.Digest{Healthy: true, Worst: watchdog.StatusHealthy}
			},
		})
		if err != nil {
			return nil, err
		}
		c.nodes[i] = m
	}
	// Seeded, directed, self-loop-free lossy links, armed for the whole run.
	// A twentieth of the N*fanout links a round uses are lossy.
	for k := 0; k < nodes*meshFanout/20; k++ {
		from := rng.Intn(nodes)
		to := rng.Intn(nodes - 1)
		if to >= from {
			to++
		}
		inj.Arm(wdmesh.LinkPoint(c.names[from], c.names[to]), faultinject.Fault{Kind: faultinject.Drop, Prob: meshLossProb})
	}
	return c, nil
}

func (c *meshCluster) close() {
	for _, m := range c.nodes {
		_ = m.Close()
	}
}

// step advances virtual time one interval and runs every node's round in
// index order. It returns the wall time the round took.
func (c *meshCluster) step() time.Duration {
	t0 := time.Now()
	c.clk.Advance(meshInterval)
	for _, m := range c.nodes {
		m.Step()
	}
	return time.Since(t0)
}

// holds reports whether observer i holds an intrinsic verdict on victim.
func (c *meshCluster) holds(i int, victim string) bool {
	for _, v := range c.nodes[i].Verdicts() {
		if v.Node == victim && v.Kind == wdmesh.VerdictIntrinsic {
			return true
		}
	}
	return false
}

// meshStats is what the measured rounds produced.
type meshStats struct {
	roundUS      []float64
	detectRounds []float64 // per episode: p50 over observers of rounds from fault to verdict
	episodes     int
	undetected   int // observers that never reached the verdict inside an episode
	uncleared    int // observers still holding a verdict when an episode's clear phase ended
	falseVerdict int // verdicts held while no node was sick
	rounds       int
	wall         time.Duration // the whole run
	stepWall     time.Duration // inside the timed rounds only
	verdictCalls int
	verdictWall  time.Duration
}

// episode phases, in rounds. 120 rounds in all: gossip converges, one node
// turns fail-slow and every other node must corroborate an intrinsic verdict
// on it, then it recovers and every verdict must clear.
const (
	convergeRounds = 20
	faultRounds    = 40
	clearRounds    = 60
)

// run steps whole episodes while another one still fits the time budget, and
// at least one.
func (c *meshCluster) run(seed int64, budget time.Duration) meshStats {
	var st meshStats
	rng := rand.New(rand.NewSource(seed ^ 0x6d657368))
	begin := time.Now()
	timed := func() {
		d := c.step()
		st.roundUS = append(st.roundUS, us(d))
		st.stepWall += d
		st.rounds++
	}
	verdictsOf := func(i int, victim string) bool {
		t0 := time.Now()
		h := c.holds(i, victim)
		st.verdictWall += time.Since(t0)
		st.verdictCalls++
		return h
	}
	var lastEpisode time.Duration
	for st.episodes == 0 || time.Since(begin)+lastEpisode <= budget {
		episodeBegin := time.Now()
		st.episodes++
		for r := 0; r < convergeRounds; r++ {
			timed()
		}
		for i := range c.nodes {
			if len(c.nodes[i].Verdicts()) != 0 {
				st.falseVerdict++
			}
		}
		victim := rng.Intn(len(c.nodes))
		c.sick[victim] = true
		seenAt := make([]int, len(c.nodes))
		for r := 1; r <= faultRounds; r++ {
			timed()
			for i := range c.nodes {
				if i != victim && seenAt[i] == 0 && verdictsOf(i, c.names[victim]) {
					seenAt[i] = r
				}
			}
		}
		var took []float64
		for i, r := range seenAt {
			switch {
			case i == victim:
			case r == 0:
				st.undetected++
			default:
				took = append(took, float64(r))
			}
		}
		st.detectRounds = append(st.detectRounds, median(took))
		c.sick[victim] = false
		for r := 0; r < clearRounds; r++ {
			timed()
		}
		for i := range c.nodes {
			if len(c.nodes[i].Verdicts()) != 0 {
				st.uncleared++
			}
		}
		lastEpisode = time.Since(episodeBegin)
	}
	st.wall = time.Since(begin)
	return st
}

func runMeshStep(ctx *runCtx) (*result, error) {
	res := newResult("mesh_step_200")
	nodes := meshNodes
	if ctx.quick {
		nodes = meshQuickNodes
	}
	c, setupS, err := setupTimes(ctx.quick,
		func() (*meshCluster, error) { return buildMesh(ctx.seed, nodes) },
		func(c *meshCluster) { c.close() })
	if err != nil {
		return nil, err
	}
	defer c.close()
	res.e2e["setup_s"] = setupS

	st := c.run(ctx.seed, ctx.dur(1))
	res.attempted = int64(st.episodes * (nodes - 1))
	res.failed = int64(st.undetected + st.uncleared + st.falseVerdict)
	if res.failed > 0 {
		res.notef("%d observers missed the verdict, %d kept one after the clear phase, %d held one with no node sick",
			st.undetected, st.uncleared, st.falseVerdict)
	}
	// Every antiEntropyEvery-th round each node also pushes a full sync, so
	// single rounds come in two sizes; the latency sample is the mean round of
	// one such cycle. Throughput is the plain total.
	cycles := blockMeans(st.roundUS, antiEntropyEvery)
	sort.Float64s(cycles)
	p50 := percentile(cycles, 50)
	res.e2e["ops_per_s"] = float64(st.rounds*nodes) / st.stepWall.Seconds() // node-steps per second
	res.e2e["lat_mean95_us"] = trimmedMean(cycles)
	res.e2e["lat_p90_us"] = percentile(cycles, 90)
	res.layers["client.mesh_round_ms"] = p50 / 1000
	res.layers["client.mesh_detect_rounds"] = median(st.detectRounds)
	res.layers["wdmesh.step_us_per_node"] = mean(st.roundUS) / float64(nodes)
	res.layers["wdmesh.verdicts_us"] = us(st.verdictWall) / float64(max(st.verdictCalls, 1))
	res.layers["wdmesh.msgs_per_round"] = float64(c.sent.Load()) / float64(st.rounds)
	res.noteTiming(fmt.Sprintf("gossip round (%d nodes)", nodes), "us", summarize(cycles))
	res.notef("%d episodes of %d rounds in %.1f s wall, %.1f s virtual; detection p50 per episode (rounds): %v",
		st.episodes, convergeRounds+faultRounds+clearRounds, st.wall.Seconds(),
		(time.Duration(st.rounds) * meshInterval).Seconds(), st.detectRounds)
	if ctx.trace {
		traceMesh(c, res)
	}
	return res, nil
}
