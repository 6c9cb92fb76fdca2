#!/usr/bin/env bash
# Non-test source lines per crate and for the workspace.
#
# Usage: scripts/loc.sh [REV]
#
# A file counts up to (not including) its first inline test module: a
# `#[cfg(test)]` line followed by `mod name {`. An out-of-line test module
# declaration (`#[cfg(test)]` then `mod name;`) does not end the count.
# Left out: `tests/` directories, `crates/vendored/`, and the test-only
# scenario oracle `crates/sim/src/scenario/oracle.rs`. The root package
# (`src/`, `examples/`) is reported as `logrel`, and `loadbench/` is not
# part of the workspace.
#
# With a revision REV (anything `git archive` accepts), the script also
# counts the tree of REV, read with `git archive REV | tar -x` into a
# temporary directory, and prints per crate the lines at REV, the lines
# of the working tree and the difference.

set -euo pipefail
cd "$(dirname "$0")/.."

# Non-test lines of the files named on stdin, summed.
count() {
    local total=0 file n
    while IFS= read -r file; do
        # `pending` holds the line of a `#[cfg(test)]` until the next
        # line shows whether an inline module follows it.
        n=$(awk '
            pending && /^[[:space:]]*(pub(\([a-z]+\))? )?mod [A-Za-z_][A-Za-z0-9_]* *\{/ { exit }
            { pending = 0 }
            /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { pending = NR }
            END { print (pending ? pending - 1 : NR) }
        ' "$file")
        total=$((total + n))
    done
    echo "$total"
}

sources() {
    find "$@" -name '*.rs' -not -path '*/tests/*' \
        -not -path 'crates/sim/src/scenario/oracle.rs' | sort
}

# `crate lines` for every crate of the tree in the current directory,
# then `total lines`.
report() {
    local workspace=0 dir crate n
    for dir in crates/*/; do
        crate=$(basename "$dir")
        [ "$crate" = vendored ] && continue
        n=$(sources "$dir" | count)
        echo "$crate $n"
        workspace=$((workspace + n))
    done
    n=$(sources src examples | count)
    echo "logrel $n"
    echo "total $((workspace + n))"
}

if [ $# -eq 0 ]; then
    report | while read -r crate n; do
        printf '%-12s %7d\n' "$crate" "$n"
    done
    exit 0
fi

rev=$1
base=$(mktemp -d)
trap 'rm -rf "$base"' EXIT
git archive "$rev" | tar -x -C "$base"
before=$(cd "$base" && report)
after=$(report)
printf '%-12s %7s %7s %7s\n' crate "$rev" tree delta
# The crates of either tree, in the order the working tree lists them
# and then any that only REV has, and the total last; a crate missing
# from one tree counts 0 lines there.
{ echo "$after"; echo "$before"; } | awk '$1 != "total" && !seen[$1]++ { print $1 }' |
    { cat; echo total; } |
    while read -r crate; do
        old=$(echo "$before" | awk -v c="$crate" '$1 == c { print $2 }')
        new=$(echo "$after" | awk -v c="$crate" '$1 == c { print $2 }')
        old=${old:-0}
        new=${new:-0}
        printf '%-12s %7d %7d %+7d\n' "$crate" "$old" "$new" $((new - old))
    done
