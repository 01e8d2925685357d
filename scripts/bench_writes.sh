#!/bin/sh
# Write-path benchmarks -> BENCH_writes.json.
#
# Three series, each at a fixed statement count so ns/op is comparable
# across runs and PRs:
#
#  - "sustained-keyed": BenchmarkSustainedKeyedWrites (50000 statements by
#    default, override with BENCH_WRITES_N) — the overlay write path per
#    retention configuration.
#  - "huge-table": BenchmarkHugeTableSustainedWrites (20000 statements by
#    default, override with BENCH_HUGE_N) — the same stream over 100k and
#    1M base rows through the segmented flush, whose per-statement cost
#    must stay flat as the base grows. Set CODS_BENCH_HUGE=1 to add the
#    10M-row point (needs several GB of RAM).
#  - "evolution": BenchmarkEvolutionDecompose (20 iterations by default,
#    override with BENCH_EVOLVE_N) — DECOMPOSE on a segmented 1M-row
#    table (99% merged base, 1% tail) through the segment-wise map/merge
#    evolution path.
set -e
n=${BENCH_WRITES_N:-50000}
hn=${BENCH_HUGE_N:-20000}
en=${BENCH_EVOLVE_N:-20}
out=$(go test -run=NONE -bench=SustainedKeyedWrites -benchtime="${n}x" cods)
echo "$out"
hout=$(go test -run=NONE -bench=HugeTableSustainedWrites -benchtime="${hn}x" cods)
echo "$hout"
eout=$(go test -run=NONE -bench=EvolutionDecompose -benchtime="${en}x" cods)
echo "$eout"
{
	echo "$out" | awk '
	  $1 ~ /^BenchmarkSustainedKeyedWrites\// {
	    split($1, parts, "/")
	    sub(/-[0-9]+$/, "", parts[2])
	    if (found++) printf ","
	    printf "\n  {\"bench\": \"sustained-keyed\", \"config\": \"%s\", \"statements\": %s, \"ns_per_op\": %s", parts[2], $2, $3
	    for (i = 5; i + 1 <= NF; i += 2) printf ", \"%s\": %s", $(i + 1), $i
	    printf "}"
	  }
	  BEGIN { printf "[" }
	'
	echo "$hout" | awk '
	  $1 ~ /^BenchmarkHugeTableSustainedWrites\// {
	    split($1, parts, "/")
	    sub(/-[0-9]+$/, "", parts[3])
	    base = parts[2]
	    sub(/^base/, "", base)
	    rows = base
	    sub(/k$/, "000", rows)
	    sub(/M$/, "000000", rows)
	    printf ",\n  {\"bench\": \"huge-table\", \"base_rows\": %s, \"mode\": \"%s\", \"statements\": %s, \"ns_per_op\": %s", rows, parts[3], $2, $3
	    for (i = 5; i + 1 <= NF; i += 2) printf ", \"%s\": %s", $(i + 1), $i
	    printf "}"
	  }
	'
	echo "$eout" | awk '
	  $1 ~ /^BenchmarkEvolutionDecompose\// {
	    split($1, parts, "/")
	    sub(/-[0-9]+$/, "", parts[2])
	    printf ",\n  {\"bench\": \"evolution\", \"base_rows\": 1000000, \"mode\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", parts[2], $2, $3
	    for (i = 5; i + 1 <= NF; i += 2) printf ", \"%s\": %s", $(i + 1), $i
	    printf "}"
	  }
	'
	printf "\n]\n"
} > BENCH_writes.json
echo "wrote BENCH_writes.json"
