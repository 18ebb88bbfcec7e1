// Package registry is coverd's resident-instance store: a thread-safe,
// content-addressed cache of set-cover instances with a hard memory budget.
//
// Instances enter by upload (Put) or from disk (LoadFile) and are
// deduplicated by content hash (setsystem.Hash), so re-uploading the same
// instance — the common case for a fleet of clients solving one workload —
// costs nothing beyond hashing the bytes. Every entry is charged its
// resident footprint against the budget: heap-backed instances their
// estimated heap size (setsystem.SizeBytes), mmap-backed SCB2 instances
// their mapped file size (the pages the mapping can keep resident) —
// the split is visible as HeapBytes/MappedBytes in Stats, and mapped
// entries never count toward heap accounting. Admitting a new instance
// evicts least-recently-used unpinned entries until it fits — evicting a
// mapped entry unmaps its file — and fails with ErrBudget when pinned
// entries (instances with in-flight solve jobs) leave no room. The
// invariant is strict: resident bytes never exceed the budget, so a
// coverd process sized to its container cannot be OOM-killed by uploads.
//
// Pinning is how the scheduler keeps an instance alive across a job's
// queue-to-completion lifetime: Acquire returns the instance plus a release
// closure; entries with outstanding pins are skipped by eviction. Releasing
// the last pin makes the entry evictable again (it is not dropped eagerly —
// the next admission decides).
package registry

import (
	"container/list"
	"errors"
	"fmt"
	"sync"

	"streamcover/client"
	"streamcover/internal/obs"
	"streamcover/internal/setsystem"
)

// DefaultBudgetBytes is the memory budget when Config.BudgetBytes is 0:
// generous for benchmarks, small enough for a default container.
const DefaultBudgetBytes = 256 << 20

// ErrBudget is returned by Put/LoadFile when the instance cannot be
// admitted without exceeding the memory budget (everything evictable has
// been evicted; what remains is pinned or the instance alone is larger than
// the whole budget).
var ErrBudget = errors.New("registry: memory budget exhausted")

// ErrNotFound is returned by Acquire for an unknown (or evicted) hash.
var ErrNotFound = errors.New("registry: instance not found (never uploaded, or evicted)")

// Config parameterizes New.
type Config struct {
	// BudgetBytes caps the summed estimated footprint of resident
	// instances. 0 means DefaultBudgetBytes.
	BudgetBytes int64
}

// Registry is the store. The zero value is not usable; call New.
type Registry struct {
	mu        sync.Mutex
	budget    int64
	resident  int64 // heap + mapped, the quantity the budget bounds
	heap      int64
	mapped    int64
	plans     int64 // attached replay-plan bytes, included in resident
	entries   map[string]*entry
	lru       *list.List // front = most recently used
	evictions uint64
	dedupHits uint64
	pinned    int // outstanding pins across all entries
}

type entry struct {
	hash   string
	inst   *setsystem.Instance
	bytes  int64 // instance footprint, excluding any attached plan
	mapped bool  // charged to the mapped ledger; eviction unmaps
	pins   int
	elem   *list.Element
	// plan is an optional pass-replay recording riding the entry (the
	// registry stores it opaquely so it does not depend on the solver
	// layer). Its bytes are charged to the budget like instance bytes and
	// it is dropped with the entry on eviction — a plan never outlives the
	// instance it replays.
	plan      any
	planBytes int64
}

// New returns an empty registry with the configured budget.
func New(cfg Config) *Registry {
	b := cfg.BudgetBytes
	if b <= 0 {
		b = DefaultBudgetBytes
	}
	return &Registry{budget: b, entries: map[string]*entry{}, lru: list.New()}
}

// Put admits the instance, deduplicating by content hash. It returns the
// hash, whether the instance was newly added (false = dedup hit, which
// refreshes the entry's recency), and ErrBudget when it cannot fit. The
// registry retains the instance; callers must not mutate it afterwards.
// A mapped instance (setsystem.Map) is charged its mapped file size and
// unmapped when evicted; on a dedup hit the registry does NOT adopt the
// caller's mapping — the caller still owns it.
func (r *Registry) Put(inst *setsystem.Instance) (hash string, added bool, err error) {
	return r.admit(inst)
}

// instSize is the footprint an instance is charged: mapped file size for
// mmap-backed instances, estimated heap size otherwise.
func instSize(inst *setsystem.Instance) (size int64, mapped bool) {
	if mb := inst.MappedBytes(); mb > 0 {
		return mb, true
	}
	return setsystem.SizeBytes(inst), false
}

func (r *Registry) admit(inst *setsystem.Instance) (hash string, added bool, err error) {
	hash = setsystem.Hash(inst)
	size, mapped := instSize(inst)
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[hash]; ok {
		r.lru.MoveToFront(e.elem)
		r.dedupHits++
		return hash, false, nil
	}
	if !r.evictFor(size) {
		return hash, false, fmt.Errorf("%w: need %d bytes, budget %d, %d resident (pinned entries are not evictable)",
			ErrBudget, size, r.budget, r.resident)
	}
	e := &entry{hash: hash, inst: inst, bytes: size, mapped: mapped}
	e.elem = r.lru.PushFront(e)
	r.entries[hash] = e
	r.resident += size
	if mapped {
		r.mapped += size
	} else {
		r.heap += size
	}
	return hash, true, nil
}

// LoadFile admits an instance file, read once by setsystem.Load: SCB2
// files are mapped — zero-copy on supporting hosts, so the entry costs
// mapped (page cache) bytes, not heap, and loading is O(pages touched)
// rather than O(decode) — while SCB1 and text files decode onto the heap.
// On a dedup hit the fresh mapping is released immediately.
func (r *Registry) LoadFile(path string) (hash string, added bool, err error) {
	inst, err := setsystem.Load(path)
	if err != nil {
		return "", false, fmt.Errorf("registry: %w", err)
	}
	hash, added, err = r.admit(inst)
	if err != nil || !added {
		inst.Unmap()
	}
	return hash, added, err
}

// evictFor drops unpinned LRU entries until size more bytes fit under the
// budget, reporting whether it succeeded. Caller holds r.mu.
func (r *Registry) evictFor(size int64) bool {
	if size > r.budget {
		return false
	}
	for r.resident+size > r.budget {
		victim := r.oldestUnpinned()
		if victim == nil {
			return false
		}
		r.remove(victim)
		r.evictions++
	}
	return true
}

func (r *Registry) oldestUnpinned() *entry {
	for el := r.lru.Back(); el != nil; el = el.Prev() {
		if e := el.Value.(*entry); e.pins == 0 {
			return e
		}
	}
	return nil
}

// remove drops an entry; evicting a mapped entry releases its mapping
// (safe: eviction only ever selects unpinned entries, and the instance
// contract is that callers hold instances only while pinned). Caller
// holds r.mu.
func (r *Registry) remove(e *entry) {
	r.lru.Remove(e.elem)
	delete(r.entries, e.hash)
	r.resident -= e.bytes + e.planBytes
	r.plans -= e.planBytes
	if e.mapped {
		r.mapped -= e.bytes
		e.inst.Unmap()
	} else {
		r.heap -= e.bytes
	}
}

// Acquire looks up an instance by hash, refreshes its recency, and pins it
// against eviction. The returned release closure drops the pin; it is
// idempotent and must be called exactly once per successful Acquire (the
// scheduler defers it to job completion). The instance is shared and
// read-only.
func (r *Registry) Acquire(hash string) (*setsystem.Instance, func(), error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[hash]
	if !ok {
		return nil, nil, ErrNotFound
	}
	r.lru.MoveToFront(e.elem)
	e.pins++
	r.pinned++
	// A pin means a solve is imminent: hint the kernel to start paging the
	// mapped arena in now so the first pass overlaps page-in with compute.
	// Best-effort and a no-op for heap-backed entries.
	_ = e.inst.Advise(setsystem.AdviseWillNeed)
	var once sync.Once
	release := func() {
		once.Do(func() {
			r.mu.Lock()
			e.pins--
			r.pinned--
			r.mu.Unlock()
		})
	}
	return e.inst, release, nil
}

// Plan returns the replay plan attached to the hash, if any, refreshing
// nothing: plan lookups ride on the instance's own recency.
func (r *Registry) Plan(hash string) (any, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[hash]
	if !ok || e.plan == nil {
		return nil, false
	}
	return e.plan, true
}

// AttachPlan charges bytes against the budget (evicting other unpinned
// entries if needed) and attaches the plan to the entry. It reports false —
// and attaches nothing — when the hash is not resident, a plan is already
// attached (first build wins; callers re-read with Plan), or the bytes do
// not fit with everything evictable evicted: replay is an optimization, so
// over-budget plans are simply not kept, never ErrBudget. The entry itself
// is protected from self-eviction while the charge is made.
func (r *Registry) AttachPlan(hash string, plan any, bytes int64) bool {
	if plan == nil || bytes < 0 {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[hash]
	if !ok || e.plan != nil {
		return false
	}
	e.pins++ // shield the entry from evictFor selecting it
	ok = r.evictFor(bytes)
	e.pins--
	if !ok {
		return false
	}
	e.plan, e.planBytes = plan, bytes
	r.resident += bytes
	r.plans += bytes
	return true
}

// Contains reports whether the hash is resident (without touching recency).
func (r *Registry) Contains(hash string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.entries[hash]
	return ok
}

// Stats is a point-in-time summary of the store (the wire type lives in
// the public client package).
type Stats = client.RegistryStats

// Stats returns the current store summary.
func (r *Registry) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Stats{
		Instances:     len(r.entries),
		ResidentBytes: r.resident,
		HeapBytes:     r.heap,
		MappedBytes:   r.mapped,
		PlanBytes:     r.plans,
		BudgetBytes:   r.budget,
		Evictions:     r.evictions,
		DedupHits:     r.dedupHits,
		Pinned:        r.pinned,
	}
}

// RegisterMetrics exposes the store on an obs registry as pull-style
// gauges and counters: every value is read from the registry's own ledgers
// at scrape time, so instrumentation adds no bookkeeping to the store's
// operational paths.
func (r *Registry) RegisterMetrics(m *obs.Registry) {
	read := func(f func(*Registry) float64) func() float64 {
		return func() float64 {
			r.mu.Lock()
			defer r.mu.Unlock()
			return f(r)
		}
	}
	m.GaugeFunc("coverd_registry_instances",
		"Resident instances in the content-addressed store.",
		read(func(r *Registry) float64 { return float64(len(r.entries)) }))
	m.GaugeFunc("coverd_registry_resident_bytes",
		"Resident bytes charged against the memory budget (heap + mapped + plans).",
		read(func(r *Registry) float64 { return float64(r.resident) }))
	m.GaugeFunc("coverd_registry_heap_bytes",
		"Resident bytes of heap-decoded instances.",
		read(func(r *Registry) float64 { return float64(r.heap) }))
	m.GaugeFunc("coverd_registry_mapped_bytes",
		"Resident bytes of mmap-backed SCB2 instances.",
		read(func(r *Registry) float64 { return float64(r.mapped) }))
	m.GaugeFunc("coverd_registry_plan_bytes",
		"Resident bytes of attached pass-replay plans.",
		read(func(r *Registry) float64 { return float64(r.plans) }))
	m.GaugeFunc("coverd_registry_budget_bytes",
		"Configured memory budget in bytes.",
		read(func(r *Registry) float64 { return float64(r.budget) }))
	m.GaugeFunc("coverd_registry_pinned_instances",
		"Instances currently pinned by in-flight solve jobs.",
		read(func(r *Registry) float64 { return float64(r.pinned) }))
	m.CounterFunc("coverd_registry_evictions_total",
		"Instances evicted to make room under the memory budget.",
		read(func(r *Registry) float64 { return float64(r.evictions) }))
	m.CounterFunc("coverd_registry_dedup_hits_total",
		"Uploads deduplicated against an already-resident instance.",
		read(func(r *Registry) float64 { return float64(r.dedupHits) }))
}

// InstanceInfo describes one resident instance, for the stats endpoint
// (the wire type lives in the public client package).
type InstanceInfo = client.InstanceInfo

// Snapshot lists the resident instances, most recently used first.
func (r *Registry) Snapshot() []InstanceInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]InstanceInfo, 0, len(r.entries))
	for el := r.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		out = append(out, InstanceInfo{
			Hash: e.hash, N: e.inst.N, M: e.inst.M(), Bytes: e.bytes,
			PlanBytes: e.planBytes,
			Backing:   e.inst.Backing().String(),
		})
	}
	return out
}
