#!/bin/sh
# Join benchmark -> BENCH_joins.json.
#
# One `codsbench joins` run per invocation: a generated fact table is
# decomposed into a fact x dimension star (shared dictionary lineage on
# the key), then the same selective count runs two ways — scanning the
# pre-DECOMPOSE table, and the hash join with the WAH semi-join
# reduction. The structured result (per-mode elapsed ms and fact-rows/s,
# plus the shared-lineage flag) appends to BENCH_joins.json, so
# successive PRs accumulate a comparable join trajectory. The two modes
# must agree on the matched count; codsbench exits non-zero if they
# diverge.
#
# Knobs: BENCH_JOINS_ROWS (default 1000000 — the issue's scenario),
# BENCH_JOINS_DIM (10000).
set -e
rows=${BENCH_JOINS_ROWS:-1000000}
dim=${BENCH_JOINS_DIM:-10000}

go run ./cmd/codsbench joins \
    -rows "$rows" -dim "$dim" \
    -out BENCH_joins.json -seed 1 -quiet
echo "appended 1 run to BENCH_joins.json"
