// Package topology models networks of switches and hosts interconnected by
// point-to-point links, as used by Myrinet-style clusters. A Network is a
// static description: switches with numbered ports, switch-to-switch links,
// and hosts attached to switch ports. Generators for the topologies evaluated
// in the paper (2-D torus, 2-D torus with express channels, CPLANT) live in
// sibling files, together with generic generators used by tests.
package topology

import (
	"fmt"
	"sort"
)

// Endpoint identifies one end of a switch-to-switch link: a switch and the
// port on that switch.
type Endpoint struct {
	Switch int
	Port   int
}

// Link is an undirected switch-to-switch link. Directed channel IDs are
// derived from the link ID: channel 2*ID carries flits from A to B and
// channel 2*ID+1 from B to A (see Network.Channel).
type Link struct {
	ID int
	A  Endpoint
	B  Endpoint
}

// HostAttach records the switch and port a host's network interface is
// cabled to. Host IDs are dense: 0..NumHosts-1.
type HostAttach struct {
	Host   int
	Switch int
	Port   int
}

// Neighbor describes, from the point of view of one switch, the switch at
// the other end of a link.
type Neighbor struct {
	Port     int // local port the link is plugged into
	Switch   int // remote switch
	PeerPort int // remote port
	Link     int // link ID
}

// Network is an immutable description of a switched network. Build one with
// a generator (NewTorus, NewExpressTorus, NewCplant, ...) or with the
// Builder, then treat it as read-only.
type Network struct {
	Name        string
	Switches    int
	SwitchPorts int
	Links       []Link
	Hosts       []HostAttach

	adj       [][]Neighbor // per switch, sorted by local port
	hostsAt   [][]int      // per switch, host IDs sorted ascending
	portUsers []map[int]portUse
}

type portUse struct {
	isHost bool
	index  int // link ID or host ID
}

// Builder accumulates switches, links, and hosts and produces a validated
// Network. The zero value is not usable; call NewBuilder.
type Builder struct {
	name        string
	switches    int
	switchPorts int
	links       []Link
	hosts       []HostAttach
	nextPort    []int // next free port per switch, for auto-assignment
	err         error
}

// NewBuilder starts a network with the given number of switches, each with
// switchPorts ports.
func NewBuilder(name string, switches, switchPorts int) *Builder {
	b := &Builder{
		name:        name,
		switches:    switches,
		switchPorts: switchPorts,
		nextPort:    make([]int, switches),
	}
	if switches <= 0 {
		b.err = fmt.Errorf("topology: %s: need at least one switch", name)
	}
	if switchPorts <= 0 {
		b.err = fmt.Errorf("topology: %s: need at least one port per switch", name)
	}
	return b
}

func (b *Builder) setErr(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf("topology: "+format, args...)
	}
}

// takePort returns the next free port on switch s.
func (b *Builder) takePort(s int) int {
	if s < 0 || s >= b.switches {
		b.setErr("%s: switch %d out of range [0,%d)", b.name, s, b.switches)
		return 0
	}
	p := b.nextPort[s]
	if p >= b.switchPorts {
		b.setErr("%s: switch %d out of ports (%d)", b.name, s, b.switchPorts)
		return 0
	}
	b.nextPort[s]++
	return p
}

// AddLink connects switches a and b with a new link, auto-assigning the next
// free port on each. Self-links are rejected; parallel links are allowed
// (Myrinet permits them) but none of the paper topologies use them.
func (b *Builder) AddLink(sa, sb int) {
	if sa == sb {
		b.setErr("%s: self-link at switch %d", b.name, sa)
		return
	}
	pa := b.takePort(sa)
	pb := b.takePort(sb)
	if b.err != nil {
		return
	}
	b.links = append(b.links, Link{
		ID: len(b.links),
		A:  Endpoint{Switch: sa, Port: pa},
		B:  Endpoint{Switch: sb, Port: pb},
	})
}

// AddHost attaches a new host to switch s on the next free port and returns
// the host ID.
func (b *Builder) AddHost(s int) int {
	p := b.takePort(s)
	if b.err != nil {
		return -1
	}
	id := len(b.hosts)
	b.hosts = append(b.hosts, HostAttach{Host: id, Switch: s, Port: p})
	return id
}

// AddHosts attaches n hosts to every switch, in switch order. This is the
// attachment pattern of all the paper's topologies (8 hosts per switch).
func (b *Builder) AddHosts(perSwitch int) {
	for s := 0; s < b.switches; s++ {
		for i := 0; i < perSwitch; i++ {
			b.AddHost(s)
		}
	}
}

// Build validates the accumulated description and returns the Network.
func (b *Builder) Build() (*Network, error) {
	if b.err != nil {
		return nil, b.err
	}
	n := &Network{
		Name:        b.name,
		Switches:    b.switches,
		SwitchPorts: b.switchPorts,
		Links:       b.links,
		Hosts:       b.hosts,
	}
	if err := n.init(); err != nil {
		return nil, err
	}
	return n, nil
}

func (n *Network) init() error {
	// Check the sizes before allocating by them: Decode feeds untrusted
	// input through here.
	switch {
	case n.Switches < 1:
		return &ConfigError{Field: "Switches", Value: n.Switches, Reason: "must be >= 1"}
	case n.SwitchPorts < 1:
		return &ConfigError{Field: "SwitchPorts", Value: n.SwitchPorts, Reason: "must be >= 1"}
	case n.Switches > len(n.Links)+1:
		return &ConfigError{Field: "Switches", Value: n.Switches,
			Reason: fmt.Sprintf("a connected switch graph needs at least Switches-1 links, got %d", len(n.Links))}
	}
	n.adj = make([][]Neighbor, n.Switches)
	n.hostsAt = make([][]int, n.Switches)
	n.portUsers = make([]map[int]portUse, n.Switches)
	for s := range n.portUsers {
		n.portUsers[s] = make(map[int]portUse)
	}
	claim := func(e Endpoint, u portUse) error {
		if e.Switch < 0 || e.Switch >= n.Switches {
			return fmt.Errorf("topology: %s: switch %d out of range", n.Name, e.Switch)
		}
		if e.Port < 0 || e.Port >= n.SwitchPorts {
			return fmt.Errorf("topology: %s: port %d out of range on switch %d", n.Name, e.Port, e.Switch)
		}
		if prev, ok := n.portUsers[e.Switch][e.Port]; ok {
			return fmt.Errorf("topology: %s: port %d on switch %d used twice (%v, %v)", n.Name, e.Port, e.Switch, prev, u)
		}
		n.portUsers[e.Switch][e.Port] = u
		return nil
	}
	for i, l := range n.Links {
		if l.ID != i {
			return fmt.Errorf("topology: %s: link %d has ID %d", n.Name, i, l.ID)
		}
		if l.A.Switch == l.B.Switch {
			return fmt.Errorf("topology: %s: link %d is a self-link", n.Name, i)
		}
		if err := claim(l.A, portUse{index: i}); err != nil {
			return err
		}
		if err := claim(l.B, portUse{index: i}); err != nil {
			return err
		}
		n.adj[l.A.Switch] = append(n.adj[l.A.Switch], Neighbor{Port: l.A.Port, Switch: l.B.Switch, PeerPort: l.B.Port, Link: i})
		n.adj[l.B.Switch] = append(n.adj[l.B.Switch], Neighbor{Port: l.B.Port, Switch: l.A.Switch, PeerPort: l.A.Port, Link: i})
	}
	for i, h := range n.Hosts {
		if h.Host != i {
			return fmt.Errorf("topology: %s: host %d has ID %d", n.Name, i, h.Host)
		}
		if err := claim(Endpoint{Switch: h.Switch, Port: h.Port}, portUse{isHost: true, index: i}); err != nil {
			return err
		}
		n.hostsAt[h.Switch] = append(n.hostsAt[h.Switch], i)
	}
	for s := range n.adj {
		sort.Slice(n.adj[s], func(i, j int) bool { return n.adj[s][i].Port < n.adj[s][j].Port })
		sort.Ints(n.hostsAt[s])
	}
	if !n.connected() {
		return fmt.Errorf("topology: %s: switch graph is not connected", n.Name)
	}
	return nil
}

func (n *Network) connected() bool {
	if n.Switches == 0 {
		return false
	}
	seen := make([]bool, n.Switches)
	queue := []int{0}
	seen[0] = true
	count := 1
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		for _, nb := range n.adj[s] {
			if !seen[nb.Switch] {
				seen[nb.Switch] = true
				count++
				queue = append(queue, nb.Switch)
			}
		}
	}
	return count == n.Switches
}

// NumHosts returns the number of hosts attached to the network.
func (n *Network) NumHosts() int { return len(n.Hosts) }

// NumChannels returns the number of directed switch-to-switch channels
// (two per link).
func (n *Network) NumChannels() int { return 2 * len(n.Links) }

// Neighbors returns the switch-to-switch adjacency of switch s, sorted by
// local port. The returned slice is shared; callers must not modify it.
func (n *Network) Neighbors(s int) []Neighbor { return n.adj[s] }

// HostsAt returns the hosts attached to switch s, ascending. The returned
// slice is shared; callers must not modify it.
func (n *Network) HostsAt(s int) []int { return n.hostsAt[s] }

// SwitchOf returns the switch host h is attached to.
func (n *Network) SwitchOf(h int) int { return n.Hosts[h].Switch }

// Channel returns the directed channel ID for traversing the given link from
// switch 'from'. Directed channels are numbered 2*link (A→B) and 2*link+1
// (B→A).
func (n *Network) Channel(link, from int) int {
	l := n.Links[link]
	if l.A.Switch == from {
		return 2 * link
	}
	if l.B.Switch == from {
		return 2*link + 1
	}
	panic(fmt.Sprintf("topology: switch %d is not an endpoint of link %d", from, link))
}

// ChannelEnds returns the source and destination switches of directed
// channel c.
func (n *Network) ChannelEnds(c int) (from, to int) {
	l := n.Links[c/2]
	if c%2 == 0 {
		return l.A.Switch, l.B.Switch
	}
	return l.B.Switch, l.A.Switch
}

// PortToward returns the local port on switch 'from' that leads across the
// given link, or -1 if the switch is not an endpoint.
func (n *Network) PortToward(link, from int) int {
	l := n.Links[link]
	switch from {
	case l.A.Switch:
		return l.A.Port
	case l.B.Switch:
		return l.B.Port
	}
	return -1
}

// LinkBetween returns the ID of a link joining switches a and b, preferring
// the lowest-numbered one, or -1 if they are not adjacent.
func (n *Network) LinkBetween(a, b int) int {
	for _, nb := range n.adj[a] {
		if nb.Switch == b {
			return nb.Link
		}
	}
	return -1
}

// Distances returns BFS hop distances (in switch-to-switch links) from
// switch src to every switch.
func (n *Network) Distances(src int) []int {
	dist := make([]int, n.Switches)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		for _, nb := range n.adj[s] {
			if dist[nb.Switch] < 0 {
				dist[nb.Switch] = dist[s] + 1
				queue = append(queue, nb.Switch)
			}
		}
	}
	return dist
}

// AllDistances returns the all-pairs BFS distance matrix over switches.
func (n *Network) AllDistances() [][]int {
	d := make([][]int, n.Switches)
	for s := range d {
		d[s] = n.Distances(s)
	}
	return d
}

// PortFanout reports how many ports each switch uses, for documentation and
// validation (the paper's switches have 16 ports).
func (n *Network) PortFanout(s int) (links, hosts, free int) {
	links = len(n.adj[s])
	hosts = len(n.hostsAt[s])
	free = n.SwitchPorts - links - hosts
	return
}

// String summarises the network's name and size in one line.
func (n *Network) String() string {
	return fmt.Sprintf("%s: %d switches, %d hosts, %d links", n.Name, n.Switches, n.NumHosts(), len(n.Links))
}
