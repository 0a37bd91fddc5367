package harness

import (
	"bytes"
	"testing"
)

// shardExport runs a set of experiments at the given shard count and
// returns the full schema-versioned JSON export.
func shardExport(t *testing.T, shards int, ids ...string) []byte {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Scale = 0.02
	cfg.Shards = shards
	r := NewRunner(cfg)
	var reports []*Report
	for _, id := range ids {
		e, ok := ExperimentByID(id)
		if !ok {
			t.Fatalf("unknown experiment %q", id)
		}
		if e.Warm != nil {
			e.Warm(r)
		}
		reports = append(reports, e.Run(r))
	}
	var buf bytes.Buffer
	if err := NewExport(cfg, reports).EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestExportIdenticalAcrossShards is the harness-level sharding
// differential: the machine-readable export of the wide experiment (whose
// Backoff-PT cell takes the fully-partitioned path at shards 4) and a
// stamp-based experiment (always the sequential fallback) must be
// byte-identical at shards 1, 3 (non-dividing: everything falls back) and 4.
func TestExportIdenticalAcrossShards(t *testing.T) {
	ids := []string{"wide", "abl-scaling"}
	base := shardExport(t, 1, ids...)
	for _, shards := range []int{3, 4} {
		if got := shardExport(t, shards, ids...); !bytes.Equal(base, got) {
			t.Errorf("export at shards=%d differs from shards=1", shards)
		}
	}
}
