package runner

import (
	"sync"
	"sync/atomic"

	"itbsim/internal/routes"
	"itbsim/internal/topology"
)

// TableCache memoizes routing-table construction across jobs. Tables
// depend only on (network, routing config), so a multi-curve spec — many
// traffic patterns, replicas, or load grids over the same scheme — needs
// each table built exactly once; every simulation then clones the shared
// master copy (netsim.New does) for its private round-robin state.
//
// The cache is safe for concurrent use. Concurrent Gets for the same key
// are single-flighted: one caller builds while the others wait, and
// distinct keys build in parallel.
type TableCache struct {
	mu      sync.Mutex
	entries map[tableKey]*tableEntry
	builds  atomic.Int64
	hits    atomic.Int64
}

type tableKey struct {
	net *topology.Network
	cfg routes.Config
}

type tableEntry struct {
	once  sync.Once
	table *routes.Table
	err   error
}

// NewTableCache returns an empty cache.
func NewTableCache() *TableCache { return &TableCache{} }

// Get returns the memoized table for (net, cfg), building it on first use.
// The returned table is the shared master copy: never mutate it. A
// simulator may be handed it as is, since netsim.New clones its table.
func (c *TableCache) Get(net *topology.Network, cfg routes.Config) (*routes.Table, error) {
	c.mu.Lock()
	if c.entries == nil {
		c.entries = map[tableKey]*tableEntry{}
	}
	key := tableKey{net: net, cfg: cfg}
	e, ok := c.entries[key]
	if !ok {
		e = &tableEntry{}
		c.entries[key] = e
	} else {
		c.hits.Add(1)
	}
	c.mu.Unlock()
	e.once.Do(func() {
		e.table, e.err = routes.Build(net, cfg)
		c.builds.Add(1)
	})
	return e.table, e.err
}

// Builds reports how many tables were actually constructed.
func (c *TableCache) Builds() int64 { return c.builds.Load() }

// Hits reports how many Gets were served from an existing entry.
func (c *TableCache) Hits() int64 { return c.hits.Load() }
