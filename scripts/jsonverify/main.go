// Command jsonverify validates the repo's machine-readable JSON outputs
// and fails if one does not parse, carries the wrong schema version, or
// is structurally broken. check.sh runs it against freshly generated
// files so schema drift breaks the gate, not a downstream consumer.
//
// It dispatches on document shape:
//
//   - a "kind":"decisions" document (bfgts-sim/stmbench -decisions-out)
//     is validated against the internal/decision schema-v2 invariants
//     and must survive its own encode/parse round trip;
//   - a document with "traceEvents" (-trace-chrome output) is checked
//     for Chrome trace_event well-formedness: known phases, non-negative
//     timestamps, named metadata;
//   - anything else is a harness reports export (schema v1); stmbench's
//     optional bytes_per_tx, allocs_per_tx and fresh_cells_per_tx
//     columns, when a report has them, must hold non-negative numbers.
//
// Usage: go run ./scripts/jsonverify FILE
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"

	"repro/internal/decision"
	"repro/internal/harness"
)

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: jsonverify FILE")
		os.Exit(2)
	}
	data, err := os.ReadFile(os.Args[1])
	if err != nil {
		fatal(err.Error())
	}

	// Peek at the discriminating fields without committing to a schema.
	var probe struct {
		Kind        string           `json:"kind"`
		TraceEvents *json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		fatal("parse: " + err.Error())
	}
	switch {
	case probe.Kind == decision.ExportKind:
		verifyDecisions(data)
	case probe.TraceEvents != nil:
		verifyChrome(data)
	default:
		verifyReports(data)
	}
}

// verifyReports gates the harness schema-v1 experiment export.
func verifyReports(data []byte) {
	var e harness.Export
	if err := json.Unmarshal(data, &e); err != nil {
		fatal("parse: " + err.Error())
	}
	if e.SchemaVersion != harness.ExportSchemaVersion {
		fatal(fmt.Sprintf("schema_version %d, want %d", e.SchemaVersion, harness.ExportSchemaVersion))
	}
	if len(e.Reports) == 0 {
		fatal("no reports")
	}
	for _, rep := range e.Reports {
		if rep.ID == "" {
			fatal("report with empty id")
		}
		if len(rep.Columns) == 0 || len(rep.Rows) == 0 {
			fatal("report " + rep.ID + ": empty columns or rows")
		}
		for _, row := range rep.Rows {
			if len(row) != len(rep.Columns) {
				fatal(fmt.Sprintf("report %s: row width %d != %d columns", rep.ID, len(row), len(rep.Columns)))
			}
			for i, col := range rep.Columns {
				if col != "bytes_per_tx" && col != "allocs_per_tx" && col != "fresh_cells_per_tx" {
					continue
				}
				v, err := strconv.ParseFloat(row[i], 64)
				if err != nil || v < 0 || math.IsInf(v, 0) || math.IsNaN(v) {
					fatal(fmt.Sprintf("report %s: %s = %q, want a non-negative number", rep.ID, col, row[i]))
				}
			}
		}
	}
	// Re-encode and re-parse: the export must survive its own round trip.
	out, err := json.Marshal(&e)
	if err != nil {
		fatal("re-encode: " + err.Error())
	}
	var again harness.Export
	if err := json.Unmarshal(out, &again); err != nil {
		fatal("re-parse: " + err.Error())
	}
	fmt.Printf("ok: %s (%d reports, schema v%d)\n", os.Args[1], len(e.Reports), e.SchemaVersion)
}

// verifyDecisions gates the internal/decision schema-v2 export: the
// package's own Validate invariants plus an encode/parse round trip.
func verifyDecisions(data []byte) {
	var e decision.Export
	if err := json.Unmarshal(data, &e); err != nil {
		fatal("parse: " + err.Error())
	}
	if err := e.Validate(); err != nil {
		fatal("validate: " + err.Error())
	}
	var buf bytes.Buffer
	if err := e.EncodeJSON(&buf); err != nil {
		fatal("re-encode: " + err.Error())
	}
	var again decision.Export
	if err := json.Unmarshal(buf.Bytes(), &again); err != nil {
		fatal("re-parse: " + err.Error())
	}
	if err := again.Validate(); err != nil {
		fatal("re-validate: " + err.Error())
	}
	records := 0
	for i := range e.Runs {
		records += len(e.Runs[i].Records)
	}
	fmt.Printf("ok: %s (%d decision runs, %d records, schema v%d)\n",
		os.Args[1], len(e.Runs), records, e.SchemaVersion)
}

// verifyChrome smoke-checks a Chrome trace_event JSON Object Format
// document: every event has a known phase and a non-negative timestamp,
// and metadata events carry args.
func verifyChrome(data []byte) {
	var doc struct {
		TraceEvents []struct {
			Name string          `json:"name"`
			Ph   string          `json:"ph"`
			Ts   float64         `json:"ts"`
			Dur  float64         `json:"dur"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		fatal("parse: " + err.Error())
	}
	if doc.TraceEvents == nil {
		fatal("traceEvents is null, want an array")
	}
	known := map[string]bool{"X": true, "i": true, "M": true, "B": true, "E": true, "C": true}
	for i, ev := range doc.TraceEvents {
		if !known[ev.Ph] {
			fatal(fmt.Sprintf("event %d: unknown phase %q", i, ev.Ph))
		}
		if ev.Name == "" {
			fatal(fmt.Sprintf("event %d: empty name", i))
		}
		if ev.Ts < 0 || ev.Dur < 0 {
			fatal(fmt.Sprintf("event %d: negative ts/dur", i))
		}
		if ev.Ph == "M" && len(ev.Args) == 0 {
			fatal(fmt.Sprintf("metadata event %d has no args", i))
		}
	}
	fmt.Printf("ok: %s (%d trace events)\n", os.Args[1], len(doc.TraceEvents))
}

func fatal(msg string) {
	fmt.Fprintln(os.Stderr, "jsonverify: "+msg)
	os.Exit(1)
}
