package cluster

import "repro/internal/service"

// RemoteOwners lists key's ring owners other than this node: the peers
// OfferGraph replicates a freshly profiled graph to.
func (c *Coordinator) RemoteOwners(key service.ProfileKey) []string {
	var out []string
	for _, name := range c.ring.Owners(profileKeyString(key), c.cfg.Replication) {
		if name != c.cfg.Self {
			out = append(out, name)
		}
	}
	return out
}
