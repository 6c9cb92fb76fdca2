#!/usr/bin/env bash
# Non-test source lines per crate and for the workspace.
#
# Usage: scripts/loc.sh
#
# A file counts up to (not including) its first inline test module: a
# `#[cfg(test)]` line followed by `mod name {`. An out-of-line test module
# declaration (`#[cfg(test)]` then `mod name;`) does not end the count.
# Left out: `tests/` directories, `crates/vendored/`, and the test-only
# scenario oracle `crates/sim/src/scenario/oracle.rs`. The root package
# (`src/`, `examples/`) is reported as `logrel`, and `loadbench/` is not
# part of the workspace.

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

workspace=0
for dir in crates/*/; do
    crate=$(basename "$dir")
    [ "$crate" = vendored ] && continue
    n=$(sources "$dir" | count)
    printf '%-12s %7d\n' "$crate" "$n"
    workspace=$((workspace + n))
done
n=$(sources src examples | count)
printf '%-12s %7d\n' logrel "$n"
workspace=$((workspace + n))
printf '%-12s %7d\n' total "$workspace"
