#!/usr/bin/env bash
# Regenerate the golden `.expected` diagnostic files after an intentional
# renderer or lint change, then re-run the golden tests to confirm the
# blessed output is byte-stable.
#
# Usage: scripts/bless.sh

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> blessing tests/assets/*.expected"
UPDATE_EXPECT=1 cargo test -q --test lint_golden > /dev/null

echo "==> re-checking blessed output"
cargo test -q --test lint_golden > /dev/null

git --no-pager diff --stat -- tests/assets || true
echo "bless: OK (review the diff above before committing)"
