#!/bin/sh
# Regenerates the speedup experiment (Figure 4a matrix) at a pinned
# configuration, exported through the schema-versioned JSON path. The file
# is deterministic — same seed, same scale, byte-identical across runs and
# across -parallel and -shards settings — so a difference from the
# committed BENCH_8.json is a real result change, not noise.
#
# Usage: ./scripts/bench.sh [-scale 0.1] [-out FILE] [-shards N]
#
# Without -out the export goes to a temporary file, and at the default
# scale it is compared with BENCH_8.json: the script fails if they differ.
# -shards N runs every simulation through the sharded engine; its output
# must equal the sequential one byte for byte.
set -eu
cd "$(dirname "$0")/.."

scale=0.1
out=
shards=1
while [ $# -gt 0 ]; do
	case "$1" in
	-scale) scale="$2"; shift 2 ;;
	-out) out="$2"; shift 2 ;;
	-shards) shards="$2"; shift 2 ;;
	*) echo "usage: $0 [-scale S] [-out FILE] [-shards N]" >&2; exit 2 ;;
	esac
done
compare=
if [ -z "$out" ]; then
	out=$(mktemp)
	trap 'rm -f "$out"' EXIT
	[ "$scale" = 0.1 ] && compare=BENCH_8.json
fi

go run ./cmd/bfgts-sim -exp speedup -seed 1 -scale "$scale" -shards "$shards" -quiet -json-out "$out" >/dev/null
go run ./scripts/jsonverify "$out"
if [ -n "$compare" ]; then
	cmp "$out" "$compare"
	echo "bench.sh: output equals $compare"
fi
