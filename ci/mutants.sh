#!/usr/bin/env bash
# Mutation audit: does a named check catch each listed fault?
#
#   ci/mutants.sh [--work DIR]
#
# Exports the working tree's tracked files (via `git stash create`;
# untracked files are not included) with `git archive` into a source
# tree under the work directory, and builds everything there into one
# shared target directory. Then, for each mutation in ci/mutants.txt,
# one at a time:
#   1. replaces the mutation's `old` text with its `new` text in its file
#      (the text must occur exactly once, or the line reads "unapplied");
#   2. runs each of its checks, a `cargo test --release --offline -q`
#      argument list, first with `--no-run` (a build failure reads
#      "unbuilt"), then for real;
#   3. prints "caught" when any check fails, "hung" when one runs past
#      120 s (a hang is caught too), "MISSED" when all pass;
#   4. puts the file back.
# Before the first mutation every check named in the list runs once on
# the unmutated tree and must pass, or the script stops: a check that
# fails anyway catches nothing.
#
# List format: one mutation per line, five tab-separated fields
#   id  file  old  new  checks
# where `old` and `new` may write a newline as \n, and `checks` holds
# one or more cargo test argument lists separated by " ; ". Blank lines
# and lines starting with # are skipped.
#
# Prints one line per mutation and a summary with the run time. Exits 0
# when every mutation is caught, 1 when any is missed, unapplied or
# unbuilt, 2 on usage errors or a failing unmutated check. Nothing in the
# working tree changes: the source copy, the builds and the log stay in
# the work directory (default: a fresh `mktemp -d`; pass the same --work
# again to reuse its builds). Each mutation costs a release rebuild of
# the crates it touches, so CI does not run this script.
set -euo pipefail

usage() {
    sed -n '4p' "$0" | sed 's/^# *//' >&2
    exit 2
}

work=""
while [ $# -gt 0 ]; do
    case "$1" in
        --work) work="${2:?}"; shift 2 ;;
        *) usage ;;
    esac
done

# Seconds one check may run before it counts as hung.
limit=120
root="$(git rev-parse --show-toplevel)"
if [ -z "$work" ]; then
    work="$(mktemp -d)"
fi
work="$(realpath -m "$work")"
case "$work/" in
    "$root"/*) echo "the work directory must lie outside the repository" >&2; exit 2 ;;
esac
mkdir -p "$work"
cd "$root"
list="$root/ci/mutants.txt"
rev="$(git stash create)"
rev="${rev:-HEAD}"

src="$work/src"
log="$work/mutants.log"
rm -rf "$src"
mkdir -p "$src"
git archive "$rev" | tar -x -C "$src"
export CARGO_TARGET_DIR="$work/target"
: > "$log"
start="$(date +%s)"

# The list's fields, one mutation per output record, NUL-separated:
# id, file, old, new, checks.
fields() {
    python3 - "$list" <<'EOF'
import sys

for n, line in enumerate(open(sys.argv[1]), 1):
    line = line.rstrip("\n")
    if not line.strip() or line.startswith("#"):
        continue
    parts = line.split("\t")
    if len(parts) != 5:
        sys.exit(f"{sys.argv[1]}:{n}: {len(parts)} tab-separated fields, expected 5")
    sys.stdout.write("\0".join(parts) + "\0")
EOF
}

# mutate FILE OLD NEW: replace the one occurrence of OLD; exit 1 if
# OLD does not occur exactly once.
mutate() {
    python3 - "$@" <<'EOF'
import sys

path, old, new = sys.argv[1:]
old, new = (s.replace("\\n", "\n") for s in (old, new))
text = open(path).read()
if text.count(old) != 1:
    sys.exit(1)
open(path, "w").write(text.replace(old, new))
EOF
}

# check ARGS: run one cargo test argument list in the source tree;
# returns 0 on pass, 1 on test failure, 2 past the time limit, 3 when
# it does not build. `timeout` signals its whole process group, so a
# hung test binary dies with cargo.
check() {
    local args status=0
    read -r -a args <<< "$1"
    (cd "$src" && cargo test --release --offline -q --no-run "${args[@]}") >> "$log" 2>&1 || return 3
    (cd "$src" && timeout -k 10 "$limit" cargo test --release --offline -q "${args[@]}") \
        >> "$log" 2>&1 || status=$?
    case "$status" in
        0) return 0 ;;
        124|137) return 2 ;;
        *) return 1 ;;
    esac
}

# Split a checks field on " ; " into the array `checks`.
split_checks() {
    checks=()
    local rest="$1"
    while [[ "$rest" == *" ; "* ]]; do
        checks+=("${rest%% ; *}")
        rest="${rest#* ; }"
    done
    checks+=("$rest")
}

echo "building and running every check on the unmutated tree ($rev) in $work" >&2
declare -A seen=()
while IFS= read -r -d '' id && IFS= read -r -d '' file && IFS= read -r -d '' old \
    && IFS= read -r -d '' new && IFS= read -r -d '' field; do
    split_checks "$field"
    for c in "${checks[@]}"; do
        [ -z "${seen[$c]:-}" ] || continue
        seen[$c]=1
        status=0
        check "$c" || status=$?
        if [ "$status" -ne 0 ]; then
            echo "the unmutated tree fails: cargo test $c (see $log)" >&2
            exit 2
        fi
    done
done < <(fields)

caught=0
other=0
while IFS= read -r -d '' id && IFS= read -r -d '' file && IFS= read -r -d '' old \
    && IFS= read -r -d '' new && IFS= read -r -d '' field; do
    t0="$(date +%s)"
    cp "$src/$file" "$work/pristine"
    echo "== $id" >> "$log"
    if ! mutate "$src/$file" "$old" "$new"; then
        verdict=unapplied
    else
        verdict=MISSED
        split_checks "$field"
        for c in "${checks[@]}"; do
            status=0
            check "$c" || status=$?
            case "$status" in
                1) verdict=caught; break ;;
                2) verdict=hung; break ;;
                3) verdict=unbuilt; break ;;
            esac
        done
    fi
    cp "$work/pristine" "$src/$file"
    case "$verdict" in
        caught|hung) caught=$((caught + 1)) ;;
        *) other=$((other + 1)) ;;
    esac
    printf '%-9s %-28s %4ss\n' "$verdict" "$id" "$(( $(date +%s) - t0 ))"
done < <(fields)

echo "$caught caught, $other not caught, $(( $(date +%s) - start )) s in all (log: $log)"
[ "$other" -eq 0 ]
