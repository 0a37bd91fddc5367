package sched

// Backoff is the reactive baseline contention manager: no begin-time
// logic, randomized exponential backoff after an abort. It is the
// lowest-overhead manager and the best choice when contention is near zero
// (Ssca2), but it lets conflicts repeat indefinitely under load — the
// pathology the proactive schedulers exist to fix.
type Backoff struct {
	env Env

	// BaseCycles is the first backoff window; each consecutive abort of
	// the same execution doubles it up to MaxShift doublings.
	BaseCycles int64
	MaxShift   int
}

// NewBackoff returns the baseline manager with the windows used in the
// evaluation.
func NewBackoff(env Env) *Backoff {
	return &Backoff{env: env, BaseCycles: 200, MaxShift: 9}
}

// Name implements Manager.
func (b *Backoff) Name() string { return "Backoff" }

// OnBegin implements Manager: always proceed, no overhead.
func (b *Backoff) OnBegin(tid, stx int) BeginResult { return BeginResult{Action: Proceed} }

// OnCPUSlot implements Manager: backoff keeps no CPU table.
func (b *Backoff) OnCPUSlot(cpu, dtx int) {}

// OnAbort implements Manager: randomized exponential backoff.
func (b *Backoff) OnAbort(tid, stx, enemyTid, enemyStx, attempts int) AbortResult {
	shift := attempts
	if shift > b.MaxShift {
		shift = b.MaxShift
	}
	window := b.BaseCycles << shift
	return AbortResult{
		Backoff:  b.env.Rand.Int63n(window) + 1,
		Overhead: 10,
	}
}

// OnCommit implements Manager: no commit-time bookkeeping.
func (b *Backoff) OnCommit(tid, stx int, lines, writes []uint64, size int) int64 {
	return 0
}
