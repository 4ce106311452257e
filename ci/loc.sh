#!/usr/bin/env bash
# Code lines per first-party crate: non-blank lines that are not `//`
# comments (doc comments included), counted in every `.rs` file under
# `crates/<crate>/` down to the file's first `#[cfg(test)]` module, so
# unit tests do not count. A `#[cfg(test)]` on anything but a `mod`
# (a test-only field, counter or helper) does not end the count. The
# vendored shims under `crates/vendor/` are not first-party and are
# skipped.
#
# Usage: ci/loc.sh [repo root]   (defaults to this script's repo)
set -euo pipefail
root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
total=0
printf '%-10s %6s %7s\n' crate files code
for dir in "$root"/crates/*/; do
    name="$(basename "$dir")"
    [ "$name" = vendor ] && continue
    files=0
    code=0
    while IFS= read -r -d '' f; do
        n="$(awk 'held && /^[[:space:]]*(pub(\([a-z]+\))? )?mod / { exit }
                  held { n++; held = 0 }
                  /^[[:space:]]*#\[cfg\(test\)\]/ { held = 1; next }
                  /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
                  { n++ }
                  END { print n + 0 }' "$f")"
        files=$((files + 1))
        code=$((code + n))
    done < <(find "$dir" -name '*.rs' -print0)
    printf '%-10s %6d %7d\n' "$name" "$files" "$code"
    total=$((total + code))
done
printf '%-10s %6s %7d\n' total '' "$total"
