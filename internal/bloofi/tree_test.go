package bloofi

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/bloom"
)

// oracle is the naive linear-scan reference the Tree must match exactly:
// a slot→key map probed by walking every slot in ascending order.
type oracle map[int]uint64

func (o oracle) probe(keys []uint64) []int {
	var slots []int
	for slot := range o {
		slots = append(slots, slot)
	}
	sort.Ints(slots)
	var out []int
	for _, slot := range slots {
		k := o[slot]
		i := sort.Search(len(keys), func(i int) bool { return keys[i] >= k })
		if i < len(keys) && keys[i] == k {
			out = append(out, slot)
		}
	}
	return out
}

func (o oracle) occupiedBefore(slot int) int {
	n := 0
	for s := range o {
		if s < slot {
			n++
		}
	}
	return n
}

// drain runs a probe to exhaustion and returns the candidate slots.
func drain(p *Probe, keys []uint64) []int {
	p.Reset(keys)
	var out []int
	for {
		slot, ok := p.Next()
		if !ok {
			return out
		}
		out = append(out, slot)
	}
}

// suspectSet draws a random ascending, deduplicated key set from keySpace.
func suspectSet(rng *rand.Rand, keySpace int) []uint64 {
	n := rng.Intn(5)
	seen := map[uint64]bool{}
	for i := 0; i < n; i++ {
		seen[uint64(rng.Intn(keySpace))] = true
	}
	keys := make([]uint64, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

func slotsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// filtersEqual compares bit sets: equal popcounts and a union popcount
// equal to both means the sets are identical.
func filtersEqual(a, b *bloom.Filter) bool {
	return a.PopCount() == b.PopCount() && a.UnionPopCount(b) == a.PopCount()
}

// checkTreeInvariants verifies the structural contract against occ:
//   - every materialized node's count equals the occupied slots under it,
//     and its filter is exactly the OR of their keys (no stale bits);
//   - empty subtrees hold no node at all;
//   - no arena node is referenced from two positions (pool aliasing);
//   - free list size + materialized nodes == arena size.
func checkTreeInvariants(t *testing.T, tr *Tree, occ oracle) {
	t.Helper()
	bits, hashes := tr.arena[0].filter.Bits(), tr.arena[0].filter.Hashes()
	want := bloom.NewFilter(bits, hashes)
	used := map[int32]bool{}
	materialized := 0
	for l := range tr.levels {
		for pos, ni := range tr.levels[l] {
			lo, hi := pos*tr.span[l], (pos+1)*tr.span[l]
			cnt := 0
			want.Reset()
			for slot, key := range occ {
				if slot >= lo && slot < hi {
					cnt++
					want.Add(key)
				}
			}
			if ni < 0 {
				if cnt != 0 {
					t.Fatalf("level %d pos %d: empty node but %d occupants", l, pos, cnt)
				}
				continue
			}
			materialized++
			if used[ni] {
				t.Fatalf("arena node %d referenced twice", ni)
			}
			used[ni] = true
			n := &tr.arena[ni]
			if int(n.count) != cnt {
				t.Fatalf("level %d pos %d: count %d, want %d", l, pos, n.count, cnt)
			}
			if cnt == 0 {
				t.Fatalf("level %d pos %d: materialized node with empty subtree", l, pos)
			}
			if !filtersEqual(n.filter, want) {
				t.Fatalf("level %d pos %d: aggregate has stale or missing bits (pop %d, want %d)",
					l, pos, n.filter.PopCount(), want.PopCount())
			}
		}
	}
	if len(tr.free)+materialized != len(tr.arena) {
		t.Fatalf("pool leak: %d free + %d materialized != %d arena nodes",
			len(tr.free), materialized, len(tr.arena))
	}
}

// TestTreeMatchesOracle drives randomized insert/remove/set churn across
// tree shapes (including partial rightmost subtrees and the single-slot
// degenerate) and requires every probe to return exactly the slots the
// naive linear scan matches, in the same ascending order.
func TestTreeMatchesOracle(t *testing.T) {
	shapes := []Config{
		{Capacity: 1},
		{Capacity: 3},
		{Capacity: 8},
		{Capacity: 9}, // rightmost root child holds one leaf
		{Capacity: 17, Branch: 2},
		{Capacity: 64},
		{Capacity: 100, Branch: 3, Bits: 64},
	}
	const keySpace = 16 // small: shared keys and dense filters
	for _, cfg := range shapes {
		rng := rand.New(rand.NewSource(int64(cfg.Capacity)))
		tr := New(cfg)
		probe := NewProbe(tr)
		occ := oracle{}
		for op := 0; op < 600; op++ {
			slot := rng.Intn(cfg.Capacity)
			key := uint64(rng.Intn(keySpace))
			switch {
			case tr.Occupied(slot) && rng.Intn(2) == 0:
				tr.Remove(slot)
				delete(occ, slot)
			default:
				tr.Set(slot, key)
				occ[slot] = key
			}
			if tr.Len() != len(occ) {
				t.Fatalf("cap %d op %d: Len=%d, oracle %d", cfg.Capacity, op, tr.Len(), len(occ))
			}
			keys := suspectSet(rng, keySpace)
			got, want := drain(probe, keys), occ.probe(keys)
			if !slotsEqual(got, want) {
				t.Fatalf("cap %d op %d: probe(%v) = %v, oracle %v", cfg.Capacity, op, keys, got, want)
			}
			if s := rng.Intn(cfg.Capacity); tr.OccupiedBefore(s) != occ.occupiedBefore(s) {
				t.Fatalf("cap %d op %d: OccupiedBefore(%d) = %d, oracle %d",
					cfg.Capacity, op, s, tr.OccupiedBefore(s), occ.occupiedBefore(s))
			}
		}
	}
}

// TestTreeRemoveRepairsAggregates pins remove-with-repair: after every
// mutation the full structural invariant holds — each interior aggregate
// is exactly the OR of its occupants' keys, so no bit of a removed key
// survives anywhere in the tree.
func TestTreeRemoveRepairsAggregates(t *testing.T) {
	cfg := Config{Capacity: 40, Branch: 4, Bits: 128}
	rng := rand.New(rand.NewSource(99))
	tr := New(cfg)
	occ := oracle{}
	for op := 0; op < 400; op++ {
		slot := rng.Intn(cfg.Capacity)
		if tr.Occupied(slot) && rng.Intn(3) > 0 {
			tr.Remove(slot)
			delete(occ, slot)
		} else {
			key := uint64(rng.Intn(8))
			tr.Set(slot, key)
			occ[slot] = key
		}
		checkTreeInvariants(t, tr, occ)
	}
}

// TestTreePooledNodesNeverAlias cycles the directory through full and
// empty states, emptied slot by slot or all at once by Reset: released
// nodes must come back reset (no bits, key or count leaking into their
// next incarnation), no arena node may back two positions at once, and
// after a full drain the pool holds every node.
func TestTreePooledNodesNeverAlias(t *testing.T) {
	cfg := Config{Capacity: 30, Branch: 3}
	tr := New(cfg)
	probe := NewProbe(tr)
	occ := oracle{}
	for run := 0; run < 4; run++ {
		// Fill every slot with run-specific keys.
		for slot := 0; slot < cfg.Capacity; slot++ {
			key := uint64(run*cfg.Capacity + slot)
			tr.Insert(slot, key)
			occ[slot] = key
		}
		checkTreeInvariants(t, tr, occ)
		if run%2 == 1 {
			tr.Reset()
			clear(occ)
			checkTreeInvariants(t, tr, occ)
		}
		// Drain in a scrambled order so repairs hit every shape.
		for _, slot := range rand.New(rand.NewSource(int64(run))).Perm(cfg.Capacity) {
			if !tr.Occupied(slot) {
				continue
			}
			tr.Remove(slot)
			delete(occ, slot)
			checkTreeInvariants(t, tr, occ)
		}
		if tr.Len() != 0 || len(tr.free) != len(tr.arena) {
			t.Fatalf("run %d: drained tree holds %d slots, pool %d/%d",
				run, tr.Len(), len(tr.free), len(tr.arena))
		}
		// Probing for the previous run's keys must find nothing: pooled
		// nodes carry no bits across runs.
		if run > 0 {
			old := []uint64{uint64((run-1)*cfg.Capacity + 1), uint64((run-1)*cfg.Capacity + 7)}
			if got := drain(probe, old); len(got) != 0 {
				t.Fatalf("run %d: stale keys from run %d still probe to %v", run, run-1, got)
			}
		}
	}
}

// TestBloofiTreeAllocFree gates the //bfgts:allocfree annotations at
// runtime: a full insert/probe/remove/reset cycle over a warmed-up
// directory performs zero heap allocations.
func TestBloofiTreeAllocFree(t *testing.T) {
	tr := New(Config{Capacity: 64})
	probe := NewProbe(tr)
	keys := make([]uint64, 0, 8)
	for k := uint64(0); k < 8; k++ {
		keys = append(keys, k)
	}
	cycle := func() {
		for slot := 0; slot < 64; slot++ {
			tr.Insert(slot, uint64(slot%8))
		}
		probe.Reset(keys)
		for {
			if _, ok := probe.Next(); !ok {
				break
			}
		}
		_ = probe.Nodes() + probe.Candidates() + tr.Len() + tr.OccupiedBefore(63)
		for slot := 0; slot < 64; slot++ {
			tr.Remove(slot)
		}
		tr.Insert(5, 1)
		tr.Reset()
	}
	cycle() // warm up
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("insert/probe/remove cycle allocates %.1f times per run, want 0", n)
	}
}
