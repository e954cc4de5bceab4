package wdruntime

import (
	"fmt"
	"log"
	"time"

	"gowatchdog/internal/watchdog"
	"gowatchdog/internal/wdmesh"
	"gowatchdog/internal/wdobs"
)

// startMesh builds and wires the cluster health plane during Start: resolve
// the transport (TCP listen unless one was injected), compose the mesh with
// the driver-backed digest source, and expose it through wdobs. The mesh is
// not started here — Start launches it only after the driver is running.
func (rt *Runtime) startMesh() error {
	tr := rt.cfg.MeshTransport
	self := rt.cfg.MeshAddr
	if tr == nil {
		tcp, err := wdmesh.ListenTCP(rt.cfg.MeshAddr)
		if err != nil {
			return fmt.Errorf("wdruntime: mesh: %w", err)
		}
		tr = tcp
		self = tcp.Addr() // ":0" resolves to the real bound identity
	}
	m, err := wdmesh.New(wdmesh.Config{
		Self:       self,
		Peers:      rt.cfg.MeshPeers,
		Interval:   rt.cfg.MeshInterval,
		Quorum:     rt.cfg.MeshQuorum,
		JitterSeed: rt.cfg.JitterSeed,
		Clock:      rt.cfg.Clock,
		Transport:  tr,
		Source:     rt.meshDigest,
		OnVerdict:  rt.onMeshVerdict,
		Logf:       log.Printf,
	})
	if err != nil {
		_ = tr.Close()
		return fmt.Errorf("wdruntime: mesh: %w", err)
	}
	rt.mu.Lock()
	rt.mesh = m
	rt.mu.Unlock()
	if rt.obs != nil {
		rt.obs.SetMesh(m.Snapshot)
	}
	return nil
}

// meshDigest assembles this node's gossip digest from the driver ledger: the
// worst abnormal status, the abnormal checker names, and the lifetime alarm
// count. It is the mesh's Source, called once per gossip round.
func (rt *Runtime) meshDigest() wdmesh.Digest {
	d := wdmesh.Digest{
		Healthy: true,
		Worst:   watchdog.StatusHealthy,
		Alarms:  rt.meshAlarms.Load(),
	}
	for _, st := range rt.driver.State() {
		if !st.HasLatest {
			continue
		}
		if status := st.Latest.Status; status.Abnormal() {
			d.Healthy = false
			d.Worst = wdmesh.WorseStatus(d.Worst, status)
			d.Abnormal = append(d.Abnormal, st.Name)
		}
	}
	return d
}

// onMeshVerdict journals cluster-verdict transitions as KindMesh events so
// the detection journal (ring + JSONL sink) records remote failures next to
// local ones. Raised verdicts carry the suspect's status — the gossiped worst
// status for intrinsic verdicts, stuck for unreachable peers — and clears
// land as healthy, mirroring a checker's recovery transition.
func (rt *Runtime) onMeshVerdict(v wdmesh.Verdict, raised bool) {
	if rt.obs == nil {
		return
	}
	rep := watchdog.Report{
		Checker: "wdmesh." + v.Node,
		Status:  watchdog.StatusHealthy,
		Time:    time.Now(),
	}
	if raised {
		if v.Kind == wdmesh.VerdictIntrinsic {
			rep.Status = v.Worst
			rep.Err = fmt.Errorf("cluster verdict: node %s reachable but its watchdog alarms (%d votes)", v.Node, v.Votes)
		} else {
			rep.Status = watchdog.StatusStuck
			rep.Err = fmt.Errorf("cluster verdict: node %s unreachable (%d votes)", v.Node, v.Votes)
		}
	}
	rt.obs.Journal().Append(wdobs.Event{Kind: wdobs.KindMesh, Report: rep})
}
