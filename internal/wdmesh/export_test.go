package wdmesh

// KnownDigest returns the freshest digest held for a node, if any.
func (m *Mesh) KnownDigest(node string) (Digest, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	i, ok := m.byName[node]
	if !ok || !m.present[i] {
		return Digest{}, false
	}
	return m.digests[i], true
}

// Wait blocks until all delayed deliveries have completed; tests call it
// before asserting on receive counts.
func (n *MemNetwork) Wait() { n.wg.Wait() }
