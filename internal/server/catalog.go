package server

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/cc"
	"repro/internal/obs"
	"repro/internal/qlang"
	"repro/internal/relation"
	"repro/internal/textq"
)

// Entry is one registered master-data context: the database schemas R,
// the master data Dm over Rm and the containment constraints V. The
// objects are shared read-only by every request that references the
// entry, which is what makes the per-(instance, generation) caches of
// the engine effective across the request stream: cc's p(Dm)
// memoization, the lazily built column indexes and posting lists of
// Dm's instances and the compiled tableaux of cached queries are built
// once and reused. Interned entries additionally share the process-wide
// value dictionary (relation.Shared), so a catalog's vocabulary is
// interned once at registration and every request joins in id space.
//
// Entries registered with DB facts additionally hold a *resident*
// database D, which the mutation endpoints (mutation.go) patch in
// place; watched queries maintain their verdicts across those
// mutations. mu orders the mutations against the checks that read the
// shared objects: every resolved check holds the read side across its
// run, and a mutation holds the write side only to apply its batch and,
// later, to publish the maintained verdicts it rechecked under the read
// side (Entry.Mutate).
type Entry struct {
	Name          string
	Schemas       map[string]*relation.Schema
	MasterSchemas map[string]*relation.Schema
	Dm            *relation.Database
	V             *cc.Set

	// D is the resident database, non-nil when the registration carried
	// DB facts. Mutations and watched verdicts run against it; check
	// requests still carry their own DB facts, parsed per request.
	D *relation.Database

	// mu guards D, Dm, V and the maintained-verdict state below against
	// concurrent mutation. Take it through lock and rlock, which record
	// the wait.
	mu sync.RWMutex
	// maint makes mutations and Watch run one at a time, so verdicts
	// are rechecked and published in the order batches are applied.
	maint sync.Mutex
	// inRecheck, when non-nil, runs in Mutate's recheck phase with the
	// read side of mu held. Tests use it to park a mutation there.
	inRecheck func()

	// watched (registration order), verdicts, version and changed form
	// the maintained verdict cache: version counts bumps, and changed is
	// closed and replaced on every bump so long-polls wake (mutation.go).
	watched  []string
	verdicts map[string]*watchedVerdict
	version  uint64
	changed  chan struct{}

	queries queryCache
}

// lock takes the write side of e.mu, recording the wait in
// obs.CatalogLockWait.
func (e *Entry) lock() {
	start := time.Now()
	e.mu.Lock()
	obs.CatalogLockWait.Observe(time.Since(start).Seconds())
}

// rlock takes the read side of e.mu, recording the wait in
// obs.CatalogLockWait.
func (e *Entry) rlock() {
	start := time.Now()
	e.mu.RLock()
	obs.CatalogLockWait.Observe(time.Since(start).Seconds())
}

// Query returns the parsed (and therefore compiled-tableau-sharing)
// form of src, memoized per entry: repeated requests with the same
// query text reuse one qlang.Query object, whose tableau is compiled
// once (cq's sync.Once cache) however many requests race on it.
func (e *Entry) Query(src string) (qlang.Query, error) {
	return e.queries.get(src, e.Schemas)
}

// CachedQueries reports the number of distinct query texts memoized.
func (e *Entry) CachedQueries() int { return e.queries.len() }

// queryCacheCap bounds each entry's memoized query set; a full cache
// is reset rather than evicted piecemeal (the workload this serves —
// a bounded set of hot queries per catalog — never gets near it).
const queryCacheCap = 1024

// queryCache memoizes parsed queries by source text.
type queryCache struct {
	mu sync.RWMutex
	m  map[string]qlang.Query
}

func (c *queryCache) get(src string, schemas map[string]*relation.Schema) (qlang.Query, error) {
	c.mu.RLock()
	q, ok := c.m[src]
	c.mu.RUnlock()
	if ok {
		obs.ServeQueryCache.Inc("hit")
		return q, nil
	}
	obs.ServeQueryCache.Inc("miss")
	q, err := textq.ParseQuery(src, schemas)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if cached, ok := c.m[src]; ok {
		// A racing request parsed it first; keep its object so the
		// compiled tableau stays shared.
		return cached, nil
	}
	if c.m == nil || len(c.m) >= queryCacheCap {
		c.m = make(map[string]qlang.Query)
	}
	c.m[src] = q
	return q, nil
}

func (c *queryCache) len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}

// Catalog is the named registry of master-data contexts.
// Re-registration under an existing name is refused; entries mutate
// only through their own locks (Entry.mu), so the registry lock covers
// nothing but the name map.
type Catalog struct {
	mu sync.RWMutex
	m  map[string]*Entry
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog { return &Catalog{m: make(map[string]*Entry)} }

// Register parses src and stores it under name. It fails if the name
// is taken or any part fails to parse/validate.
func (c *Catalog) Register(name string, src textq.ProblemSource) (*Entry, error) {
	if name == "" {
		return nil, fmt.Errorf("catalog: name is required")
	}
	if src.Query != "" {
		return nil, fmt.Errorf("catalog: entries hold data contexts, not queries")
	}
	p, err := textq.ParseProblemData(src)
	if err != nil {
		return nil, err
	}
	e := &Entry{
		Name:          name,
		Schemas:       p.Schemas,
		MasterSchemas: p.MasterSchemas,
		Dm:            p.Dm,
		V:             p.V,
		D:             p.D,
		verdicts:      make(map[string]*watchedVerdict),
		changed:       make(chan struct{}),
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[name]; ok {
		return nil, fmt.Errorf("catalog: %q is already registered", name)
	}
	c.m[name] = e
	return e, nil
}

// drop removes a just-registered entry whose post-registration setup
// (seeding watched verdicts) failed, so a failed POST /v1/catalog does
// not leave a half-configured entry behind.
func (c *Catalog) drop(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.m, name)
}

// Get returns the entry under name, or nil.
func (c *Catalog) Get(name string) *Entry {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.m[name]
}

// Names returns the registered names, sorted.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.m))
	for n := range c.m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
