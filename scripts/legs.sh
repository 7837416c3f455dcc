#!/usr/bin/env bash
# The determinism contract, written once: every invocation whose output
# must be byte-identical, grouped into classes that must agree.
#
#   scripts/legs.sh check          # run every leg on this tree; cmp each against its class
#   scripts/legs.sh parity <rev>   # run every compared leg on <rev> and on this tree; cmp pairs
#
# `check` builds this tree's release binaries (a no-op when fresh), runs
# every leg and compares each compared output with the same output of its
# class's first leg. A class with one leg runs it twice and compares the
# two runs. A leg fails when its command exits non-zero (the binaries
# assert their own invariants in-process: `artifact cluster` the chaos
# outcome, `paper` each experiment's bounds, the examples their
# `assert_eq!`s) or when a compared output is missing or empty.
#
# `parity` builds <rev> offline in a temporary `git worktree` with its own
# target dir (`results_dir()` is baked in from the source path, and two
# checkouts sharing one target dir overwrite each other's binaries), runs
# each leg that has a compared output on both builds and compares the two
# outputs. It exits non-zero on any difference and removes the worktree on
# every exit path. A revision older than the `paper` and `artifact`
# binaries fails, naming the binaries it lacks.
set -euo pipefail

# One leg per line: class | command | compared outputs.
#
# command   run from the tree root; the first word names a binary under
#           target/release. `{w}` makes three legs, at each of WORKERS;
#           `{out}` and `{trace}` become fresh paths in a scratch dir.
# outputs   `{out}`, `stdout`, or paths under the tree root; `-` checks the
#           exit status only (the output holds timings). The trial lines of
#           `coverage_sweep_trials.jsonl` are compared without the timed
#           `{"run":..}` footers; everything else is compared raw.
# LEGS is one single-quoted string, so no line in it may hold a quote.
LEGS='
# The campaign stream is a function of (trials, seed, shards): not of the
# worker count, the chunk size, the steal schedule, the ingestion path, or
# whether metrics or the flight recorder are on. Each artefact also ends
# with the aggregate of a bare CampaignSink run, asserted in-process to
# equal the teed one, so the bytes cover both sinks.
determinism              | artifact determinism --workers 1 --out {out}                                              | {out}
determinism              | artifact determinism --workers {w} --out {out}                                            | {out}
determinism              | artifact determinism --workers {w} --chunk 1 --out {out}                                  | {out}
determinism              | artifact determinism --workers {w} --profile latency --source eager --out {out}           | {out}
determinism              | artifact determinism --workers {w} --profile latency --source streaming --out {out}       | {out}
determinism              | artifact determinism --workers {w} --metrics --out {out}                                  | {out}
determinism              | artifact determinism --workers {w} --metrics --chunk 1 --out {out}                        | {out}
determinism              | artifact determinism --workers {w} --trace --out {out}                                    | {out}
determinism              | artifact determinism --workers {w} --trace --chunk 1 --out {out}                          | {out}
# The compute-only profile: no sleeps, so the result path runs under full
# CPU contention (send-blocking and coalescing).
determinism-cpu          | artifact determinism --workers 1 --profile cpu --out {out}                                | {out}
determinism-cpu          | artifact determinism --workers {w} --profile cpu --out {out}                              | {out}
determinism-cpu          | artifact determinism --workers {w} --profile cpu --chunk 1 --out {out}                    | {out}
determinism-cpu          | artifact determinism --workers {w} --profile cpu --source eager --out {out}               | {out}
determinism-cpu          | artifact determinism --workers {w} --profile cpu --source streaming --out {out}           | {out}
determinism-cpu          | artifact determinism --workers {w} --profile cpu --chunk 1 --source streaming --out {out} | {out}
determinism-cpu          | artifact determinism --workers {w} --profile cpu --metrics --source streaming --out {out} | {out}
determinism-cpu          | artifact determinism --workers {w} --profile cpu --trace --source streaming --out {out}   | {out}
# Every trial run: the cluster fabric must reproduce it at every process
# topology (--procs 0 computes in the head), traced or not, and when a
# worker is killed, hangs past its deadline or sends a corrupt frame.
determinism-no-abort     | artifact determinism --workers 1 --no-abort --out {out}                                   | {out}
determinism-no-abort     | artifact determinism --workers {w} --no-abort --out {out}                                 | {out}
determinism-no-abort     | artifact determinism --workers 8 --profile latency --no-abort --out {out}                 | {out}
determinism-no-abort     | artifact cluster --procs 0 --threads 8 --profile latency --out {out}                      | {out}
determinism-no-abort     | artifact cluster --procs 1 --threads 8 --profile latency --out {out}                      | {out}
determinism-no-abort     | artifact cluster --procs 2 --threads 4 --profile latency --out {out}                      | {out}
determinism-no-abort     | artifact cluster --procs 4 --threads 2 --profile latency --out {out}                      | {out}
determinism-no-abort     | artifact cluster --procs 3 --threads 2 --chaos kill --out {out}                           | {out}
determinism-no-abort     | artifact cluster --procs 3 --threads 2 --chaos corrupt --out {out}                        | {out}
determinism-no-abort     | artifact cluster --procs 3 --threads 2 --chaos hang --task-timeout-ms 2000 --out {out}    | {out}
determinism-no-abort     | artifact cluster --procs 0 --threads 8 --out {out}                                        | {out}
determinism-no-abort     | artifact cluster --procs 0 --threads 8 --out {out} --trace {trace}                        | {out}
determinism-no-abort     | artifact cluster --procs 1 --threads 8 --out {out}                                        | {out}
determinism-no-abort     | artifact cluster --procs 1 --threads 8 --out {out} --trace {trace}                        | {out}
determinism-no-abort     | artifact cluster --procs 2 --threads 4 --out {out}                                        | {out}
determinism-no-abort     | artifact cluster --procs 2 --threads 4 --out {out} --trace {trace}                        | {out}
determinism-no-abort     | artifact cluster --procs 4 --threads 2 --out {out}                                        | {out}
determinism-no-abort     | artifact cluster --procs 4 --threads 2 --out {out} --trace {trace}                        | {out}
# The untraced twin of the traced kill reruns the chaos kill above.
determinism-no-abort     | artifact cluster --procs 3 --threads 2 --chaos kill --out {out}                           | {out}
determinism-no-abort     | artifact cluster --procs 3 --threads 2 --chaos kill --out {out} --trace {trace}           | {out}
determinism-no-abort-cpu | artifact determinism --workers 1 --profile cpu --no-abort --out {out}                     | {out}
determinism-no-abort-cpu | artifact determinism --workers {w} --profile cpu --no-abort --out {out}                   | {out}
determinism-no-abort-cpu | artifact determinism --workers 8 --profile cpu --no-abort --out {out}                     | {out}
determinism-no-abort-cpu | artifact cluster --procs 0 --threads 8 --profile cpu --out {out}                          | {out}
determinism-no-abort-cpu | artifact cluster --procs 1 --threads 8 --profile cpu --out {out}                          | {out}
determinism-no-abort-cpu | artifact cluster --procs 2 --threads 4 --profile cpu --out {out}                          | {out}
determinism-no-abort-cpu | artifact cluster --procs 4 --threads 2 --profile cpu --out {out}                          | {out}
# The serving replay runs on a virtual clock: its per-request JSONL is a
# function of the arrival seed and process, not of the worker count. The
# second {w} line reruns the same command.
serving-201-poisson      | artifact serving --workers 1 --seed 201 --arrival poisson --out {out}                     | {out}
serving-201-poisson      | artifact serving --workers {w} --seed 201 --arrival poisson --out {out}                   | {out}
serving-201-poisson      | artifact serving --workers {w} --seed 201 --arrival poisson --out {out}                   | {out}
serving-201-burst        | artifact serving --workers 1 --seed 201 --arrival burst --out {out}                       | {out}
serving-201-burst        | artifact serving --workers {w} --seed 201 --arrival burst --out {out}                     | {out}
serving-201-burst        | artifact serving --workers {w} --seed 201 --arrival burst --out {out}                     | {out}
serving-202-poisson      | artifact serving --workers 1 --seed 202 --arrival poisson --out {out}                     | {out}
serving-202-poisson      | artifact serving --workers {w} --seed 202 --arrival poisson --out {out}                   | {out}
serving-202-poisson      | artifact serving --workers {w} --seed 202 --arrival poisson --out {out}                   | {out}
serving-202-burst        | artifact serving --workers 1 --seed 202 --arrival burst --out {out}                       | {out}
serving-202-burst        | artifact serving --workers {w} --seed 202 --arrival burst --out {out}                     | {out}
serving-202-burst        | artifact serving --workers {w} --seed 202 --arrival burst --out {out}                     | {out}
# Each paper experiment at --quick, so its in-process asserts fire.
table1                   | paper table1 --quick                                                                      | -
fig3                     | paper fig3 --quick                                                                        | results/fig3_series.csv
fig4                     | paper fig4 --quick                                                                        | results/fig4_confidence.csv
confusion                | paper confusion --quick                                                                   | results/confusion_compare.csv
pretrain_drift           | paper pretrain_drift --quick                                                              | results/pretrain_drift.csv
bucket_dynamics          | paper bucket_dynamics --quick                                                             | results/bucket_dynamics.csv
coverage_sweep           | paper coverage_sweep --quick                                                              | results/coverage_sweep.csv results/coverage_sweep_trials.jsonl
# The examples; campaign_engine prints timings and asserts 1- vs 8-worker equality itself.
campaign_engine          | examples/campaign_engine                                                                  | -
deployment_manifest      | examples/deployment_manifest                                                              | stdout
fault_campaign           | examples/fault_campaign                                                                   | stdout
quickstart               | examples/quickstart                                                                       | stdout
shape_qualifier          | examples/shape_qualifier                                                                  | stdout
stop_sign_pipeline       | examples/stop_sign_pipeline                                                               | stdout
'
WORKERS="1 2 8"

root="$(cd "$(dirname "$0")/.." && pwd)"

die() {
    echo "legs.sh: $*" >&2
    exit 1
}

# Prints one "class|command|outputs" line per leg, `{w}` expanded.
legs() {
    local class cmd outs w
    while IFS='|' read -r class cmd outs; do
        read -r class <<<"$class"
        [ -n "$class" ] && [ "${class:0:1}" != '#' ] || continue
        read -r cmd <<<"$cmd"
        read -r outs <<<"$outs"
        if [[ $cmd == *'{w}'* ]]; then
            for w in $WORKERS; do echo "$class|${cmd//\{w\}/$w}|$outs"; done
        else
            echo "$class|$cmd|$outs"
        fi
    done <<<"$LEGS"
}

# build TREE TARGET NAME: builds what the legs run from TREE into TARGET,
# then fails naming any binary NAME does not build.
build() {
    local prog missing=()
    cargo build --release --offline --manifest-path "$1/Cargo.toml" --target-dir "$2" \
        -p relcnn -p relcnn-bench --bins --examples
    for prog in $(legs | cut -d'|' -f2 | cut -d' ' -f1 | sort -u); do
        [ -x "$2/release/$prog" ] || missing+=("$prog")
    done
    [ "${#missing[@]}" -eq 0 ] || die "$3 has no binary named ${missing[*]}"
}

# run TREE BIN DIR CMD OUTS: runs CMD in TREE with binaries from BIN and
# leaves compared output i in DIR/cmp.i. On failure prints why and
# returns 1.
run() {
    local tree="$1" bin="$2" dir="$3" cmd="$4" outs="$5" o src i=0 argv status=0
    mkdir -p "$dir"
    cmd="${cmd//\{out\}/$dir/out}"
    cmd="${cmd//\{trace\}/$dir/trace.json}"
    read -ra argv <<<"$cmd"
    for o in $outs; do
        case "$o" in results/*) rm -f "$tree/$o" ;; esac
    done
    (cd "$tree" && "$bin/${argv[0]}" "${argv[@]:1}") >"$dir/stdout" 2>"$dir/stderr" || status=$?
    if [ "$status" -ne 0 ]; then
        echo "exit status $status; stderr ends:"
        tail -n 5 "$dir/stderr" | sed 's/^/    /'
        return 1
    fi
    for o in $outs; do
        case "$o" in
        -) continue ;;
        stdout) src="$dir/stdout" ;;
        '{out}') src="$dir/out" ;;
        *) src="$tree/$o" ;;
        esac
        [ -s "$src" ] || {
            echo "$o is missing or empty"
            return 1
        }
        if [[ $o == */coverage_sweep_trials.jsonl ]]; then
            grep -v '^{"run":' "$src" >"$dir/cmp.$i" || true
        else
            cp "$src" "$dir/cmp.$i"
        fi
        i=$((i + 1))
    done
}

# same DIR_A DIR_B OUTS: cmps every compared output of two runs; prints
# the outputs that differ.
same() {
    local outs=($3) i bad=()
    for i in "${!outs[@]}"; do
        cmp -s "$1/cmp.$i" "$2/cmp.$i" || bad+=("${outs[$i]}")
    done
    [ "${#bad[@]}" -eq 0 ] || {
        echo "${bad[*]} differ"
        return 1
    }
}

# report VERDICT CLASS CMD [DETAIL]: one line per leg.
differ=0 failed=0
report() {
    case "$1" in
    DIFFER) differ=$((differ + 1)) ;;
    FAIL) failed=$((failed + 1)) ;;
    esac
    printf '%-7s %-25s %s\n' "$1" "$2" "$3"
    [ -z "${4:-}" ] || printf '%s\n' "$4" | sed 's/^/        /'
}

# summary N: the closing line; fails on any difference or failed leg.
summary() {
    echo "$1 legs, $differ differ$([ "$failed" -eq 0 ] || echo ", $failed failed")"
    [ "$differ" -eq 0 ] && [ "$failed" -eq 0 ]
}

check() {
    build "$root" "$root/target" "this tree"
    local class cmd outs n=0 why
    work="$(mktemp -d)"
    trap 'rm -rf "$work"' EXIT
    declare -A first size
    while IFS='|' read -r class _; do size[$class]=$((${size[$class]:-0} + 1)); done < <(legs)
    while IFS='|' read -r class cmd outs; do
        n=$((n + 1))
        if ! why="$(run "$root" "$root/target/release" "$work/$n" "$cmd" "$outs")"; then
            report FAIL "$class" "$cmd" "$why"
        elif [ "$outs" = - ]; then
            report ok "$class" "$cmd (exit status)"
        elif [ "${size[$class]}" -eq 1 ]; then
            if ! why="$(run "$root" "$root/target/release" "$work/$n.again" "$cmd" "$outs")"; then
                report FAIL "$class" "$cmd (second run)" "$why"
            elif why="$(same "$work/$n" "$work/$n.again" "$outs")"; then
                report ok "$class" "$cmd (twice)"
            else
                report DIFFER "$class" "$cmd (twice)" "$why"
            fi
        elif [ -z "${first[$class]:-}" ]; then
            first[$class]="$work/$n"
            report ref "$class" "$cmd"
        elif why="$(same "${first[$class]}" "$work/$n" "$outs")"; then
            report ok "$class" "$cmd"
        else
            report DIFFER "$class" "$cmd" "$why"
        fi
    done < <(legs)
    summary "$n"
}

parity() {
    local rev class cmd outs n=0 why
    rev="$(git -C "$root" rev-parse --verify --quiet "$1^{commit}")" || die "no revision $1"
    work="$(mktemp -d)"
    trap 'git -C "$root" worktree remove --force "$work/tree" 2>/dev/null || true; git -C "$root" worktree prune; rm -rf "$work"' EXIT
    git -C "$root" worktree add --quiet --detach "$work/tree" "$rev"
    build "$work/tree" "$work/target" "$1"
    build "$root" "$root/target" "this tree"
    echo "parity: $1 ($rev) vs this tree"
    while IFS='|' read -r class cmd outs; do
        [ "$outs" != - ] || continue
        n=$((n + 1))
        if ! why="$(run "$work/tree" "$work/target/release" "$work/$n.rev" "$cmd" "$outs")"; then
            report FAIL "$class" "$cmd" "$1: $why"
        elif ! why="$(run "$root" "$root/target/release" "$work/$n" "$cmd" "$outs")"; then
            report FAIL "$class" "$cmd" "this tree: $why"
        elif why="$(same "$work/$n.rev" "$work/$n" "$outs")"; then
            report same "$class" "$cmd"
        else
            report DIFFER "$class" "$cmd" "$why"
        fi
    done < <(legs)
    summary "$n"
}

work=
trap 'exit 130' INT TERM
case "${1:-} $#" in
'check 1') check ;;
'parity 2') parity "$2" ;;
*) die "usage: legs.sh check | legs.sh parity <rev>" ;;
esac
