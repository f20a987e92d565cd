package scenario

// Topology describes the organization layout a scenario runs on: Sizes[o]
// is organization o's peer count, and global peer indices are dense in org
// order (org 0 owns [0, Sizes[0]), org 1 the next Sizes[1] indices, ...).
// Organizations need not be the same size — asymmetric consortiums (one
// datacenter org, several small branches) are first-class. The single-org
// layout of the original catalog is Uniform(1, n).
type Topology struct {
	Sizes []int
}

// Uniform returns the homogeneous layout: orgs organizations of per peers.
func Uniform(orgs, per int) Topology {
	sizes := make([]int, orgs)
	for i := range sizes {
		sizes[i] = per
	}
	return Topology{Sizes: sizes}
}

// Orgs returns the organization count.
func (t Topology) Orgs() int { return len(t.Sizes) }

// Size returns organization org's peer count.
func (t Topology) Size(org int) int { return t.Sizes[org] }

// Total returns the network-wide peer count.
func (t Topology) Total() int {
	n := 0
	for _, s := range t.Sizes {
		n += s
	}
	return n
}

// OrgOf returns the organization index owning a global peer index.
func (t Topology) OrgOf(global int) int {
	for o, s := range t.Sizes {
		if global < s {
			return o
		}
		global -= s
	}
	return len(t.Sizes) - 1
}

// OrgLo returns the first global peer index of an organization.
func (t Topology) OrgLo(org int) int {
	lo := 0
	for o := 0; o < org; o++ {
		lo += t.Sizes[o]
	}
	return lo
}

// OrgHi returns one past the last global peer index of an organization.
func (t Topology) OrgHi(org int) int { return t.OrgLo(org) + t.Sizes[org] }

// OrgSpan returns the organization's global peer indices.
func (t Topology) OrgSpan(org int) []int { return span(t.OrgLo(org), t.OrgHi(org)) }
