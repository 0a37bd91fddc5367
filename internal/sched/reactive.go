package sched

// This file implements the classic *reactive* contention managers of
// Scherer & Scott, which the paper's Section 2 positions as the
// predecessors of transaction scheduling: they never predict, only decide
// — when a transaction is NACKed — how long to keep stalling before
// giving up, and how long to back off after an abort. On LogTM-style
// hardware a requester cannot abort the holder (eager versioning), so the
// policies reduce to stall-budget and backoff disciplines:
//
//   - Polite: bounded exponential patience — stall longer each consecutive
//     abort of the same execution, then retry.
//   - Karma: priority = work invested (lines accessed). A requester that
//     has done more work than the holder is patient (it expects to win);
//     one that has done less gives up quickly and retries later.
//   - Timestamp: age wins. Older transactions are patient; younger ones
//     yield quickly, which guarantees the oldest transaction in the system
//     always makes progress.
//
// They plug into the runner through the StallPolicy extension interface.

// StallInfo describes a NACK for StallPolicy decisions.
type StallInfo struct {
	ReqTid, ReqStx int
	// ReqWork and HolderWork count distinct lines each side has isolated
	// so far — Karma's "work invested" currency.
	ReqWork, HolderWork int
	// ReqSeq and HolderSeq are global begin-order stamps (lower = older).
	ReqSeq, HolderSeq uint64
	// Attempts is how many times this execution has already aborted.
	Attempts int
}

// StallPolicy is an optional Manager extension: managers implementing it
// control how long a NACKed transaction stalls before self-aborting,
// replacing the runner's fixed timeout.
type StallPolicy interface {
	// StallBudget returns the cycles to keep spinning on the line before
	// giving up and aborting. Returning 0 aborts immediately.
	StallBudget(info StallInfo) int64
}

// Polite is the patient reactive manager: its stall budget and its
// post-abort backoff both grow exponentially with consecutive failures.
type Polite struct {
	env        Env
	BaseStall  int64
	MaxStallSh int
}

// NewPolite returns the Polite manager with the evaluation's windows.
func NewPolite(env Env) *Polite {
	return &Polite{env: env, BaseStall: 400, MaxStallSh: 6}
}

// Name implements Manager.
func (p *Polite) Name() string { return "Polite" }

// OnBegin implements Manager: reactive managers never gate begins.
func (p *Polite) OnBegin(tid, stx int) BeginResult { return BeginResult{Action: Proceed} }

// OnCPUSlot implements Manager.
func (p *Polite) OnCPUSlot(cpu, dtx int) {}

// StallBudget implements StallPolicy: patience doubles per abort.
func (p *Polite) StallBudget(info StallInfo) int64 {
	sh := info.Attempts
	if sh > p.MaxStallSh {
		sh = p.MaxStallSh
	}
	return p.BaseStall << sh
}

// OnAbort implements Manager.
func (p *Polite) OnAbort(tid, stx, enemyTid, enemyStx, attempts int) AbortResult {
	sh := attempts
	if sh > 9 {
		sh = 9
	}
	return AbortResult{Backoff: p.env.Rand.Int63n(200<<sh) + 1, Overhead: 8}
}

// OnCommit implements Manager.
func (p *Polite) OnCommit(tid, stx int, lines, writes []uint64, size int) int64 {
	return 0
}

// Karma is the work-invested reactive manager.
type Karma struct {
	env       Env
	BaseStall int64
}

// NewKarma returns the Karma manager.
func NewKarma(env Env) *Karma {
	return &Karma{env: env, BaseStall: 500}
}

// Name implements Manager.
func (k *Karma) Name() string { return "Karma" }

// OnBegin implements Manager.
func (k *Karma) OnBegin(tid, stx int) BeginResult { return BeginResult{Action: Proceed} }

// OnCPUSlot implements Manager.
func (k *Karma) OnCPUSlot(cpu, dtx int) {}

// StallBudget implements StallPolicy: patience scales with the ratio of
// work invested — a requester holding more lines than the holder waits it
// out; one holding fewer yields fast.
func (k *Karma) StallBudget(info StallInfo) int64 {
	ratio := float64(info.ReqWork+1) / float64(info.HolderWork+1)
	budget := int64(float64(k.BaseStall) * ratio * 2)
	if budget < 100 {
		budget = 100
	}
	if budget > 16*k.BaseStall {
		budget = 16 * k.BaseStall
	}
	return budget
}

// OnAbort implements Manager: backoff proportional to the karma deficit
// is approximated with the standard randomized window.
func (k *Karma) OnAbort(tid, stx, enemyTid, enemyStx, attempts int) AbortResult {
	sh := attempts
	if sh > 9 {
		sh = 9
	}
	return AbortResult{Backoff: k.env.Rand.Int63n(150<<sh) + 1, Overhead: 12}
}

// OnCommit implements Manager.
func (k *Karma) OnCommit(tid, stx int, lines, writes []uint64, size int) int64 {
	return 0
}

// TimestampCM is the age-based reactive manager: the oldest transaction in
// any conflict is infinitely patient, so it always eventually wins — a
// livelock-freedom guarantee none of the windowed policies give.
type TimestampCM struct {
	env       Env
	BaseStall int64
	// OldPatience is the stall budget when the requester is older than
	// the holder (long: the holder will finish or deadlock resolution
	// will kill the younger side).
	OldPatience int64
}

// NewTimestampCM returns the Timestamp manager.
func NewTimestampCM(env Env) *TimestampCM {
	return &TimestampCM{env: env, BaseStall: 300, OldPatience: 50000}
}

// Name implements Manager.
func (t *TimestampCM) Name() string { return "Timestamp" }

// OnBegin implements Manager.
func (t *TimestampCM) OnBegin(tid, stx int) BeginResult { return BeginResult{Action: Proceed} }

// OnCPUSlot implements Manager.
func (t *TimestampCM) OnCPUSlot(cpu, dtx int) {}

// StallBudget implements StallPolicy.
func (t *TimestampCM) StallBudget(info StallInfo) int64 {
	if info.ReqSeq < info.HolderSeq {
		return t.OldPatience
	}
	return t.BaseStall
}

// OnAbort implements Manager.
func (t *TimestampCM) OnAbort(tid, stx, enemyTid, enemyStx, attempts int) AbortResult {
	sh := attempts
	if sh > 9 {
		sh = 9
	}
	return AbortResult{Backoff: t.env.Rand.Int63n(200<<sh) + 1, Overhead: 8}
}

// OnCommit implements Manager.
func (t *TimestampCM) OnCommit(tid, stx int, lines, writes []uint64, size int) int64 {
	return 0
}
