#!/bin/sh
# docslint: documentation consistency checks.
#
# 1. Every Go package must carry a package-level doc comment: library
#    packages "// Package <name> ...", commands "// Command ...".
# 2. README.md must not drift from the commands it documents: every
#    flag on a line that runs codsbench must exist in `codsbench -h`, and
#    every `make <target>` named in README.md or ARCHITECTURE.md
#    (backticked, or at the start of a line in a code block) must be a
#    real Makefile target.
# 3. Every `cods serve` flag must be documented: each flag that
#    `cods serve -h` reports must appear (backticked) in README.md and
#    in the cmd/cods command doc comment's usage block.
# 4. Every codslint analyzer (`codslint -analyzers` is the source of
#    truth) must be named in both ARCHITECTURE.md and README.md, so the
#    invariant-lint docs cannot drift from the registered suite.
# 5. Every `cods:immutable` marker in the source must sit in the doc
#    comment of a type declaration, and that type must be named in
#    ARCHITECTURE.md's codslint section — a marker on a deleted or
#    renamed type is dead enforcement.
# 6. The documented SELECT grammar must not drift from the parser:
#    every clause keyword internal/smo/select.go accepts (the
#    keyword()/expectKeyword() literals) must appear in README.md's
#    query-syntax docs, so a grammar extension cannot land
#    undocumented.
# 7. The delta overlay must not grow a read path of its own: a Query,
#    Count or Rows method on delta.Overlay fails the check, since every
#    data read goes through the planner (plan.Run) over the flushed
#    table (Overlay.Table).
# 8. The engine sizes its own worker pool and merge ratio: no Config
#    struct in a non-test Go file at the repository root (package cods,
#    engine included) may declare Parallelism or SegmentMergeRatio,
#    and the serial/bounded twins (expr EvalP, colstore FilterRowsP and
#    ScanWhereP, csvio LoadP and ReadP) may not come back.
# 9. One key-grouping kernel: rows are grouped by tuples of dictionary
#    ids (colstore.Group), never by value strings joined with NUL bytes,
#    which collide as soon as a value contains one. A NUL-joined key
#    ("\x00" or WriteByte(0)) in non-test Go in internal/evolve, or a
#    WriteByte(0) key in non-test Go in internal/colstore, fails the
#    check.
#
# Run from the repository root (CI's docs-lint step, `make docs-lint`).
set -u
fail=0
for dir in . ./internal/* ./internal/*/* ./cmd/*; do
    [ -d "$dir" ] || continue
    ls "$dir"/*.go >/dev/null 2>&1 || continue
    found=0
    for f in "$dir"/*.go; do
        case "$f" in *_test.go) continue ;; esac
        if grep -q -E '^// (Package|Command) ' "$f"; then
            found=1
            break
        fi
    done
    if [ "$found" -eq 0 ]; then
        echo "docslint: $dir has no package doc comment (want '// Package ...' or '// Command ...')"
        fail=1
    fi
done

# flag's -h output lists each flag as "  -name type" (or "  -name" for
# booleans); anchor on that so -row cannot pass by matching a prefix of
# -rows. The while loops run in subshells, so violations are collected
# via their stdout rather than a variable.
bench_help=$(go run ./cmd/codsbench -h 2>&1)
viol=$(
    grep -E 'codsbench ' README.md | grep -oE ' -[a-z][a-z0-9-]*' | sort -u |
    while read -r flag; do
        name=${flag#-}
        case "$name" in h|help) continue ;; esac # flag's built-in help
        if ! printf '%s\n' "$bench_help" | grep -qE "^  -$name( |\$)"; then
            echo "docslint: README.md uses flag -$name not in \`codsbench -h\`"
        fi
    done
    for doc in README.md ARCHITECTURE.md; do
        grep -oE '(`|^)make [a-z][a-z0-9-]*' "$doc" | tr -d '`' | sort -u |
        while read -r _ target; do
            if ! grep -qE "^$target:" Makefile; then
                echo "docslint: $doc references \`make $target\` but Makefile has no such target"
            fi
        done
    done
)
if [ -n "$viol" ]; then
    echo "$viol"
    fail=1
fi

# cods serve flags: -h is generated from the flag set, so it is the
# source of truth; README.md and the command doc comment must keep up.
serve_help=$(go run ./cmd/cods serve -h 2>&1)
viol=$(
    printf '%s\n' "$serve_help" | grep -oE '^  -[a-z][a-z0-9-]*' | sort -u |
    while read -r flag; do
        name=${flag#*-}
        if ! grep -q -- "\`-$name\`" README.md; then
            echo "docslint: \`cods serve -h\` has flag -$name undocumented in README.md"
        fi
        if ! grep -qE "^//.* \[-$name( |\])" cmd/cods/main.go; then
            echo "docslint: \`cods serve -h\` has flag -$name missing from the cmd/cods usage comment"
        fi
    done
)
if [ -n "$viol" ]; then
    echo "$viol"
    fail=1
fi

# codslint analyzers: the registered suite is the source of truth; both
# ARCHITECTURE.md and README.md must name every analyzer.
viol=$(
    go run ./cmd/codslint -analyzers | cut -f1 |
    while read -r name; do
        for doc in ARCHITECTURE.md README.md; do
            if ! grep -q "\`$name\`" "$doc"; then
                echo "docslint: codslint analyzer $name is not named in $doc"
            fi
        done
    done
)
if [ -n "$viol" ]; then
    echo "$viol"
    fail=1
fi

# cods:immutable markers: each must be the doc comment of a type
# declaration (within the next 5 lines — doc text may follow the
# marker), and that type must appear in ARCHITECTURE.md so the enforced
# list stays documented.
viol=$(
    grep -rnE '^// cods:immutable$' --include='*.go' . |
    grep -v '/testdata/' |
    while IFS=: read -r file line _; do
        typename=$(awk -v start="$line" 'NR > start && NR <= start + 5 && /^type [A-Za-z_]/ { print $2; exit }' "$file")
        if [ -z "$typename" ]; then
            echo "docslint: $file:$line: cods:immutable marker is not attached to a type declaration"
        elif ! grep -q "$typename" ARCHITECTURE.md; then
            echo "docslint: cods:immutable type $typename ($file:$line) is not mentioned in ARCHITECTURE.md"
        fi
    done
)
if [ -n "$viol" ]; then
    echo "$viol"
    fail=1
fi

# SELECT grammar: the parser's accepted clause keywords (the quoted
# uppercase literals in keyword()/expectKeyword() calls in select.go,
# plus SELECT itself) are the source of truth; README.md's query docs
# must name every one of them.
viol=$(
    {
        echo SELECT
        grep -oE '(expectKeyword|keyword)\("[A-Z]+"\)' internal/smo/select.go |
            grep -oE '"[A-Z]+"' | tr -d '"'
    } | sort -u |
    while read -r kw; do
        if ! grep -qw "$kw" README.md; then
            echo "docslint: SELECT clause keyword $kw (internal/smo/select.go) is not documented in README.md"
        fi
    done
)
if [ -n "$viol" ]; then
    echo "$viol"
    fail=1
fi

# One read path: internal/delta answers no query itself.
viol=$(
    grep -nE '^func \(o \*Overlay\) (Query|Count|Rows)\(' internal/delta/*.go |
    while IFS=: read -r file line _; do
        echo "docslint: $file:$line: Overlay read method; reads go through plan.Run and Overlay.Table"
    done
)
if [ -n "$viol" ]; then
    echo "$viol"
    fail=1
fi

# No pool-size or merge-ratio knob: the pool is GOMAXPROCS, the ratio 2.
why="the engine sizes its pool from GOMAXPROCS and merges at ratio 2"
viol=$(
    for f in *.go; do
        case "$f" in *_test.go) continue ;; esac
        awk -v f="$f" -v why="$why" '
            /^type Config struct/ { in_cfg = 1; next }
            in_cfg && /^}/ { in_cfg = 0 }
            in_cfg && $1 ~ /^(Parallelism|SegmentMergeRatio)$/ {
                print "docslint: " f ":" NR ": Config declares " $1 "; " why
            }' "$f"
    done
    grep -nE '^(func (\([^)]*\) )?|[[:space:]]+)(EvalP|FilterRowsP|ScanWhereP|LoadP|ReadP)\(' \
        internal/expr/*.go internal/colstore/*.go internal/csvio/*.go |
    while IFS=: read -r file line _; do
        echo "docslint: $file:$line: declares a bounded-parallelism twin; $why"
    done
)
if [ -n "$viol" ]; then
    echo "$viol"
    fail=1
fi

# One key-grouping kernel: no NUL-joined row keys in evolve or colstore.
why="group rows with colstore.Group, whose keys are dictionary-id tuples"
viol=$(
    {
        for f in internal/evolve/*.go; do
            case "$f" in *_test.go) continue ;; esac
            grep -nE 'WriteByte\(0\)|\\x00' "$f" | sed "s|^|$f:|"
        done
        for f in internal/colstore/*.go; do
            case "$f" in *_test.go) continue ;; esac
            grep -n 'WriteByte(0)' "$f" | sed "s|^|$f:|"
        done
    } |
    while IFS=: read -r file line _; do
        echo "docslint: $file:$line: NUL-joined row key; $why"
    done
)
if [ -n "$viol" ]; then
    echo "$viol"
    fail=1
fi

[ "$fail" -eq 0 ] && echo "docslint: all packages documented, codsbench and make, flag, grammar, and codslint docs consistent, one read path, no pool-size knob, one key-grouping kernel"
exit $fail
