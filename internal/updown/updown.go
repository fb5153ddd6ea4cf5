// Package updown implements the up*/down* routing scheme used by Myrinet
// and Autonet: a breadth-first spanning tree assigns a direction to every
// operational link, and a legal route traverses zero or more links in the
// "up" direction followed by zero or more links in the "down" direction.
// The package provides the direction assignment, path legality checks,
// shortest-legal-path search, a re-implementation of Myricom's
// simple_routes balanced path selection, the channel dependency graph used
// for deadlock checks and layer admission, and the legal-path search kernel
// every route builder shares (kernel.go).
package updown

import (
	"fmt"

	"itbsim/internal/topology"
)

// Assignment is the up*/down* direction assignment for a network: the BFS
// spanning tree from Root and the resulting "up" end of every link.
type Assignment struct {
	Net   *topology.Network
	Root  int
	Level []int // BFS tree depth of every switch (root = 0)

	// upEnd[l] is the switch at the "up" end of link l: the end closer to
	// the root, ties broken by lower switch ID (§2 of the paper).
	upEnd []int

	// The search kernel's state graph and raw distance tables (kernel.go),
	// built by NewAssignment and read-only afterwards.
	off   []int32 // the moves of state s are moves[off[s]:off[s+1]]
	moves []move
	raw   []int32 // raw[s*n+t]: hop distance between switches s and t
	order []int32 // order[s*n:(s+1)*n]: the switches in BFS order from s
}

// NewAssignment computes the up*/down* direction assignment rooted at the
// given switch.
func NewAssignment(net *topology.Network, root int) (*Assignment, error) {
	if root < 0 || root >= net.Switches {
		return nil, fmt.Errorf("updown: root switch %d out of range [0,%d)", root, net.Switches)
	}
	a := &Assignment{Net: net, Root: root}
	a.Level = net.Distances(root)
	a.upEnd = make([]int, len(net.Links))
	for i, l := range net.Links {
		sa, sb := l.A.Switch, l.B.Switch
		switch {
		case a.Level[sa] < a.Level[sb]:
			a.upEnd[i] = sa
		case a.Level[sb] < a.Level[sa]:
			a.upEnd[i] = sb
		case sa < sb:
			a.upEnd[i] = sa
		default:
			a.upEnd[i] = sb
		}
	}
	a.buildKernel()
	return a, nil
}

// UpEnd returns the switch at the "up" end of link l.
func (a *Assignment) UpEnd(l int) int { return a.upEnd[l] }

// IsUpChannel reports whether directed channel c travels in the "up"
// direction (towards the up end of its link).
func (a *Assignment) IsUpChannel(c int) bool {
	_, to := a.Net.ChannelEnds(c)
	return to == a.upEnd[c/2]
}

// IsUpHop reports whether moving from switch 'from' across link l is an
// "up" traversal.
func (a *Assignment) IsUpHop(l, from int) bool {
	return a.upEnd[l] != from
}

// LegalChannelSeq reports whether a sequence of directed channels obeys the
// up*/down* rule: no "up" traversal after a "down" traversal.
func (a *Assignment) LegalChannelSeq(channels []int) bool {
	goneDown := false
	for _, c := range channels {
		if a.IsUpChannel(c) {
			if goneDown {
				return false
			}
		} else {
			goneDown = true
		}
	}
	return true
}

// LegalSwitchPath reports whether a switch path (sequence of adjacent
// switches) obeys the up*/down* rule. Adjacent switches are connected via
// the lowest-numbered link between them (none of the paper topologies have
// parallel links).
func (a *Assignment) LegalSwitchPath(path []int) bool {
	goneDown := false
	for i := 0; i+1 < len(path); i++ {
		l := a.Net.LinkBetween(path[i], path[i+1])
		if l < 0 {
			return false
		}
		if a.IsUpHop(l, path[i]) {
			if goneDown {
				return false
			}
		} else {
			goneDown = true
		}
	}
	return true
}

// phase of a partially built up*/down* path.
const (
	phaseUp   = 0 // still allowed to take "up" links
	phaseDown = 1 // a "down" link has been taken; only "down" links remain legal
)

// LegalDistances returns, for a source switch, the minimal number of links
// of any legal up*/down* path to every switch, searched on a fresh
// Workspace (see Workspace.LegalDistances).
func (a *Assignment) LegalDistances(src int) []int { return NewWorkspace(a).LegalDistances(src) }

// MinimalLegalFraction returns the fraction of ordered switch pairs
// (src != dst) whose shortest legal up*/down* path is also a shortest path
// in the raw graph, and the average legal and raw distances. The paper
// reports 80% for the 8x8 torus, 94% with express channels, and 100% for
// CPLANT.
func (a *Assignment) MinimalLegalFraction() (fraction, avgLegal, avgRaw float64) {
	n := a.Net.Switches
	w := NewWorkspace(a)
	minimal, pairs := 0, 0
	var sumLegal, sumRaw int
	for s := 0; s < n; s++ {
		raw := a.RawDistances(s)
		legal := w.LegalDistances(s)
		for d := 0; d < n; d++ {
			if d == s {
				continue
			}
			pairs++
			sumRaw += int(raw[d])
			sumLegal += legal[d]
			if legal[d] == int(raw[d]) {
				minimal++
			}
		}
	}
	if pairs == 0 {
		return 1, 0, 0
	}
	return float64(minimal) / float64(pairs), float64(sumLegal) / float64(pairs), float64(sumRaw) / float64(pairs)
}
