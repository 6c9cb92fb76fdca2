#!/usr/bin/env bash
# Non-test source lines per crate and for the workspace.
#
# Usage: scripts/loc.sh [REV]
#
# A file counts up to (not including) its first inline test module: a
# `#[cfg(test)]` line followed by `mod name {`. An out-of-line test module
# declaration (`#[cfg(test)]` then `mod name;`) does not end the count;
# the module's own file (and any file under its directory) is left out
# instead. Also left out: `tests/` directories and `crates/vendored/`.
# The root package (`src/`, `examples/`) is reported as `logrel`, and
# `loadbench/` is not part of the workspace.
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

# The files of out-of-line test modules (`#[cfg(test)]` then `mod
# name;`), found where rustc looks for them: beside `lib.rs`, `main.rs`
# and `mod.rs`, under `foo/` for `foo.rs`.
test_modules() {
    local file name dir
    find crates src examples -name '*.rs' -not -path 'crates/vendored/*' |
        while IFS= read -r file; do
            awk '
                pending && /^[[:space:]]*(pub(\([a-z]+\))? )?mod [A-Za-z_][A-Za-z0-9_]* *;/ {
                    sub(/^.*mod /, ""); sub(/ *;.*$/, ""); print
                }
                { pending = 0 }
                /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { pending = 1 }
            ' "$file" | while IFS= read -r name; do
                case $(basename "$file") in
                    lib.rs | main.rs | mod.rs) dir=$(dirname "$file") ;;
                    *) dir=${file%.rs} ;;
                esac
                if [ -f "$dir/$name.rs" ]; then echo "$dir/$name.rs"; fi
                if [ -d "$dir/$name" ]; then find "$dir/$name" -name '*.rs'; fi
            done
        done
}

# The non-test source files under the given directories; `excluded`
# holds the test-module files of the tree.
sources() {
    find "$@" -name '*.rs' -not -path '*/tests/*' | sort |
        { grep -vxF -f <(printf '%s\n' "$excluded") || true; }
}

# `crate lines` for every crate of the tree in the current directory,
# then `total lines`.
report() {
    local workspace=0 dir crate n excluded
    excluded=$(test_modules)
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
