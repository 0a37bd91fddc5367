package workload

// ShardPlan is a workload's declared address/core partition for sharded
// simulation (sim.RunConfig.Shards). Shards own contiguous core ranges:
// shard i of S over C cores owns cores [i*C/S, (i+1)*C/S).
type ShardPlan struct {
	// SharedBase splits the address space: lines below it are shard-
	// private (only ever accessed by threads of the owning shard's
	// cores), lines at or above it are shared and read-only.
	SharedBase uint64
	// OwnerShard maps a line address to the shard that owns it. For
	// shard-private lines that is the shard of the accessing cores; for
	// shared lines it names the shard whose directory validates
	// cross-shard probe messages for that line.
	OwnerShard func(addr uint64) int
}

// Sharder is implemented by workloads that can run fully partitioned: the
// plan guarantees that (a) every access below SharedBase comes from a
// thread on a core the owning shard covers, (b) every access at or above
// SharedBase is a read, and (c) programs share no mutable generator state
// (no OnCommit coupling across shards). Under those rules every conflict
// is shard-local, which is what lets the partitioned lanes free-run
// concurrently and still merge to the sequential run's exact results.
//
// ShardPlan reports ok=false when the requested geometry does not match
// the workload (wrong core count, indivisible shard count, ...); the
// simulator then falls back to the sequential engine.
type Sharder interface {
	ShardPlan(shards, cores, threadsPerCore int) (ShardPlan, bool)
}
