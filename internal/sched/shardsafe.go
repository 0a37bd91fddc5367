package sched

// ShardSafe marks a contention manager as safe for fully-partitioned
// sharded simulation: all of its mutable state is keyed by thread, CPU or
// static transaction of a single shard's threads, and it never draws from
// the shared Env.Rand (whose draw order depends on the cross-shard
// interleaving). A manager without the marker still works at any shard
// count — the simulator falls back to the sequential engine.
type ShardSafe interface {
	// ShardSafe is a marker method; implementations are empty.
	ShardSafe()
}

// PerThreadBackoff is the Backoff baseline with the shared random stream
// replaced by per-thread splitmix64 jitter states seeded from the thread
// ID alone. Each thread's backoff draws then depend only on its own abort
// history — which is shard-local under the Sharder partition contract —
// so the manager carries the ShardSafe marker and partitioned lanes
// reproduce the sequential run's backoffs exactly. (It is intentionally
// NOT part of the baseline experiment set: its draw sequence differs from
// Backoff's, so swapping it in would shift every pinned report.)
type PerThreadBackoff struct {
	env Env

	// BaseCycles is the first backoff window; each consecutive abort of
	// the same execution doubles it up to MaxShift doublings.
	BaseCycles int64
	MaxShift   int

	jitter []uint64 // per-thread splitmix64 states
}

// NewPerThreadBackoff returns the shard-safe backoff baseline with the
// same windows as Backoff.
func NewPerThreadBackoff(env Env) *PerThreadBackoff {
	m := &PerThreadBackoff{
		env:        env,
		BaseCycles: 200,
		MaxShift:   9,
		jitter:     make([]uint64, env.NumThreads),
	}
	for tid := range m.jitter {
		// Seeded from the thread ID only: identical streams at any shard
		// count, with distinct odd increments keeping threads decorrelated.
		m.jitter[tid] = (uint64(tid)+1)*0xd1342543de82ef95 ^ 0x5bf0f7c9
	}
	return m
}

// ShardSafe implements the marker.
func (m *PerThreadBackoff) ShardSafe() {}

// Name implements Manager.
func (m *PerThreadBackoff) Name() string { return "Backoff-PT" }

// OnBegin implements Manager: always proceed, no overhead.
func (m *PerThreadBackoff) OnBegin(tid, stx int) BeginResult { return BeginResult{Action: Proceed} }

// OnCPUSlot implements Manager: no CPU table.
func (m *PerThreadBackoff) OnCPUSlot(cpu, dtx int) {}

// nextJitter advances thread tid's private splitmix64 stream.
func (m *PerThreadBackoff) nextJitter(tid int) uint64 {
	m.jitter[tid] += 0x9e3779b97f4a7c15
	z := m.jitter[tid]
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// OnAbort implements Manager: randomized exponential backoff, jittered
// from the aborting thread's own stream.
func (m *PerThreadBackoff) OnAbort(tid, stx, enemyTid, enemyStx, attempts int) AbortResult {
	shift := attempts
	if shift > m.MaxShift {
		shift = m.MaxShift
	}
	window := m.BaseCycles << shift
	return AbortResult{
		Backoff:  int64(m.nextJitter(tid)%uint64(window)) + 1,
		Overhead: 10,
	}
}

// OnCommit implements Manager: no commit-time bookkeeping.
func (m *PerThreadBackoff) OnCommit(tid, stx int, lines, writes []uint64, size int) int64 {
	return 0
}
