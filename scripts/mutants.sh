#!/usr/bin/env bash
# Hand-made mutants of the guarantee path, and a runner that reports which
# named tests kill each one.
#
#   scripts/mutants.sh list            # print every mutant
#   scripts/mutants.sh run [pattern]   # run the mutants whose line matches the extended regex
#
# `run` copies this tree (tracked files and untracked ones git does not
# ignore, uncommitted edits included) into a `mktemp -d` directory under
# $TMPDIR with its own target dir, and removes it on every exit. For each
# mutant it replaces the exact text in the file (the text must occur there
# exactly once), runs
#
#   cargo test -q --offline --no-fail-fast -p relcnn-relexec -p relcnn-faults -p relcnn-core -p relcnn
#
# (the root package's tests included), restores the file, and prints one
# line: `killed` with the failing tests, or `survived`. It exits 1 on any
# survivor without a note, and on any mutant that does not apply or does
# not build. The first mutant pays a cold build (several minutes on 2
# vCPUs); each later one rebuilds the crates its file reaches.
set -euo pipefail

# One mutant per line: id | file | exact text | replacement | the rule it breaks [| note]
#
# Fields are separated by ` | ` (space, bar, space), so no text may hold
# that sequence. A note marks a survivor as accepted, e.g.
# `equivalent: <why no test can see it>`.
MUTANTS='
# Survivors of the 2026-10-19 probe: each is now killed by a named test.
mac-worst-rollback | crates/relexec/src/cost.rs    | + 2 * retry.max_retries as u64 * self.rollback                         | + retry.max_retries as u64 * self.rollback      | a retried MAC rolls back its multiply and its accumulate (the published WCET)
tmr-detect-pairing | crates/core/src/guarantee.rs  | let two_plus = 3.0 * ber * ber                                          | let two_plus = 2.0 * ber * ber                   | three replica pairs can fault together (TMR detection probability)
relu-bucket-peak   | crates/relexec/src/conv.rs    | stats.bucket_peak = stats.bucket_peak.max(rect.stats.bucket_peak);     | let _ = rect.stats.bucket_peak;                  | the partition reports the higher bucket peak of its two stages
load-replica-0     | crates/relexec/src/alu.rs     | let ctx = self.ctx(site, 0);                                            | let ctx = self.ctx(site, 1);                     | a load is one common-mode exposure, as replica 0
edge-map-sqrt      | crates/core/src/hybrid.rs     | (x * x + y * y).sqrt()                                                  | x * x + y * y                                    | the Figure-2 edge map is the gradient magnitude
hybrid-pre-relu    | crates/core/src/hybrid.rs     | partition.pre_relu.as_ref().unwrap_or(&partition.output)                | &partition.output                                | the Figure-2 qualifier reads the Sobel planes before the ReLU stage
# Killed only by a golden digest in the 2026-10-19 probe.
tmr-vote-minority  | crates/relexec/src/alu.rs     | Qualified::passed(r[1])                                                 | Qualified::passed(r[0])                          | a 1-2 majority passes the majority word
tmr-vote-arm-02    | crates/relexec/src/alu.rs     | if same(0, 1) || same(0, 2) {                                           | if same(0, 1) {                                  | replicas 0 and 2 outvote replica 1
relu-cycles        | crates/relexec/src/conv.rs    | stats.cycles += rect.stats.cycles;                                      | let _ = rect.stats.cycles;                       | the partition costs the ReLU stage cycles too
# The plan: the one count of the partition operations.
plan-bias-load     | crates/relexec/src/conv.rs    | u64::from(self.bias) * self.outputs()                                   | self.outputs()                                   | a conv without a bias loads none
plan-padding-taps  | crates/relexec/src/conv.rs    | (self.in_c * self.out_c) as u64 * taps(&self.rows) * taps(&self.cols)   | (self.in_c * self.out_c * self.geom.positions() * self.geom.k_h() * self.geom.k_w()) as u64 | taps in padding execute no MAC
plan-relu-ops      | crates/relexec/src/conv.rs    | 2 * self.executed_macs() + self.relu_ops()                              | 2 * self.executed_macs()                         | the ReLU stage rectifications are qualified operations
'

root="$(cd "$(dirname "$0")/.." && pwd)"
SEP=$'\x1f'

die() {
    echo "mutants.sh: $*" >&2
    exit 1
}

# Prints one mutant per line, its fields joined by SEP and trimmed; keeps
# only lines matching the extended regex $1 (all when empty).
mutants() {
    awk -v pat="${1:-}" -v sep="$SEP" -F ' [|] ' '
        /^[[:space:]]*(#|$)/ { next }
        pat != "" && $0 !~ pat { next }
        {
            out = ""
            for (i = 1; i <= NF; i++) {
                gsub(/^[[:space:]]+|[[:space:]]+$/, "", $i)
                out = out (i > 1 ? sep : "") $i
            }
            print out
        }
    ' <<<"$MUTANTS"
}

list() {
    local id file from to rule note
    while IFS="$SEP" read -r id file from to rule note; do
        printf '%-19s %s\n    - %s\n    + %s\n    breaks: %s\n' "$id" "$file" "$from" "$to" "$rule"
        [ -z "$note" ] || printf '    note: %s\n' "$note"
    done < <(mutants "${1:-}")
}

# apply TREE FILE FROM TO: replaces FROM, which must occur exactly once, by TO.
apply() {
    MUT_FROM="$3" MUT_TO="$4" perl -0pi -e '
        my $n = () = /\Q$ENV{MUT_FROM}\E/g;
        die "occurs $n times\n" unless $n == 1;
        s/\Q$ENV{MUT_FROM}\E/$ENV{MUT_TO}/;
    ' "$1/$2"
}

run() {
    local id file from to rule note log status failing n=0 bad=0
    [ -n "$(mutants "${1:-}")" ] || die "no mutant matches ${1:-}"
    work="$(mktemp -d)"
    trap 'rm -rf "$work"' EXIT
    mkdir "$work/tree"
    (cd "$root" && git ls-files -z --cached --others --exclude-standard |
        tar --null -T - --ignore-failed-read -cf - 2>/dev/null) | tar -xf - -C "$work/tree"
    while IFS="$SEP" read -r id file from to rule note; do
        n=$((n + 1))
        cp "$work/tree/$file" "$work/orig"
        if ! why="$(apply "$work/tree" "$file" "$from" "$to" 2>&1)"; then
            printf '%-8s %-19s %s: text %s\n' ERROR "$id" "$file" "$why"
            bad=$((bad + 1))
            continue
        fi
        log="$work/$id.log"
        status=0
        (cd "$work/tree" && CARGO_TARGET_DIR="$work/target" timeout 1800 \
            cargo test -q --offline --no-fail-fast \
            -p relcnn-relexec -p relcnn-faults -p relcnn-core -p relcnn) >"$log" 2>&1 || status=$?
        cp "$work/orig" "$work/tree/$file"
        failing="$(sed -n 's/^---- \(.*\) stdout ----$/\1/p' "$log" | sort -u | tr '\n' ' ')"
        if [ "$status" -eq 0 ]; then
            printf '%-8s %-19s %s\n' survived "$id" "$rule${note:+ ($note)}"
            [ -n "$note" ] || bad=$((bad + 1))
        elif [ -n "$failing" ]; then
            printf '%-8s %-19s by %s\n' killed "$id" "$failing"
        elif [ "$status" -eq 124 ]; then
            printf '%-8s %-19s by the 1800 s timeout\n' killed "$id"
        else
            printf '%-8s %-19s exit %s with no failing test; log ends:\n' ERROR "$id" "$status"
            tail -n 5 "$log" | sed 's/^/        /'
            bad=$((bad + 1))
        fi
    done < <(mutants "${1:-}")
    echo "$n mutants, $bad not killed or not run"
    [ "$bad" -eq 0 ]
}

work=
trap 'exit 130' INT TERM
case "${1:-} $#" in
'list 1' | 'list 2') list "${2:-}" ;;
'run 1' | 'run 2') run "${2:-}" ;;
*) die "usage: mutants.sh list [pattern] | mutants.sh run [pattern]" ;;
esac
