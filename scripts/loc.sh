#!/usr/bin/env bash
# Non-blank, non-comment Rust lines per crate, so a PR's line delta is
# mechanical (ROADMAP aim 2: every PR reports it in CHANGES.md).
#
#   scripts/loc.sh [repo-root]        # default: the checkout this script is in
#
# Columns: `src` = library/binary code under <crate>/src outside test
# modules; `cfg(test)` = everything from a file's top-level `#[cfg(test)]`
# to its end (this repo keeps unit tests in one trailing module);
# `tests` = the crate's tests/ and benches/ directories. crates/vendor
# (offline stand-ins for published crates) is not counted. A "comment"
# is a line whose first non-blank characters are `//`.
set -euo pipefail
root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$root"

# Prints "<code> <cfg_test>" summed over the .rs files under the given dirs.
count() {
    local files=()
    for dir in "$@"; do
        [ -d "$dir" ] || continue
        while IFS= read -r f; do files+=("$f"); done < <(find "$dir" -name '*.rs' | sort)
    done
    [ "${#files[@]}" -gt 0 ] || { echo "0 0"; return; }
    awk '
        FNR == 1 { in_test = 0 }
        /^#\[cfg\(test\)\]/ { in_test = 1 }
        /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        { if (in_test) test++; else code++ }
        END { printf "%d %d\n", code, test }
    ' "${files[@]}"
}

printf '%-12s %8s %10s %8s\n' crate src 'cfg(test)' tests
total_src=0 total_unit=0 total_tests=0
row() {
    local name="$1" src unit tests _
    read -r src unit < <(count "$2")
    read -r tests _ < <(count "${@:3}")
    printf '%-12s %8d %10d %8d\n' "$name" "$src" "$unit" "$tests"
    total_src=$((total_src + src)) total_unit=$((total_unit + unit)) total_tests=$((total_tests + tests))
}
for dir in crates/*/; do
    name="$(basename "$dir")"
    [ "$name" = vendor ] && continue
    row "$name" "$dir/src" "$dir/tests" "$dir/benches"
done
row '(root)' src tests
row examples /nonexistent examples
printf '%-12s %8d %10d %8d\n' total "$total_src" "$total_unit" "$total_tests"
