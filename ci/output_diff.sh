#!/usr/bin/env bash
# Compare every seeded output of the working tree with a parent revision's.
#
#   ci/output_diff.sh [--work DIR] REV
#
# Exports REV with `git archive` into a temporary source tree and builds
# both trees in release (binaries and examples), each into its own target
# directory under the work directory. Then runs, for each side, in an
# output directory of its own under the work directory:
#   run_all --quick, run_all --paper, ablation_skew --quick,
#   every example under examples/,
#   bench_stage_cost, bench_sim, bench_scenarios and bench_cluster --quick.
# and compares the two sides:
#   - the stdout of run_all, ablation_skew and every example, byte for byte;
#   - the four BENCH_*.json reports, with the host-clock keys dropped
#     (stages_per_sec, fleet_stages_per_s, wall_s, passes, host_*); the
#     simulated ones, sim_tokens_per_sec among them, must match;
#   - BENCH_cluster_snapshot.json, byte for byte.
# The bench binaries' stdout tables mix in wall-clock numbers and are not
# compared.
#
# Prints "identical" or the diffs. Exits 0 when identical, 1 on any
# difference, 2 on usage or build errors. Nothing in the working tree is
# written: builds and outputs stay in the work directory (default: a
# fresh `mktemp -d`, kept so a second run with --work can reuse the
# builds). It needs two release builds, so CI does not run it.
set -euo pipefail

usage() {
    sed -n '4p' "$0" | sed 's/^# *//' >&2
    exit 2
}

work=""
while [ $# -gt 0 ]; do
    case "$1" in
        --work) work="${2:?}"; shift 2 ;;
        -h|--help) usage ;;
        --*) echo "unknown option $1" >&2; usage ;;
        *) break ;;
    esac
done
[ $# -eq 1 ] || usage
rev="$1"

root="$(git rev-parse --show-toplevel)"
cd "$root"
git rev-parse --verify --quiet "$rev^{commit}" > /dev/null \
    || { echo "not a revision: $rev" >&2; exit 2; }
if [ -z "$work" ]; then
    work="$(mktemp -d)"
fi
mkdir -p "$work"
work="$(cd "$work" && pwd)"
case "$work/" in
    "$root"/*) echo "the work directory must lie outside the repository" >&2; exit 2 ;;
esac

parent_src="$work/parent-src"
rm -rf "$parent_src"
mkdir -p "$parent_src"
git archive "$rev" | tar -x -C "$parent_src"

build() { # build TREE TARGET_DIR
    CARGO_TARGET_DIR="$2" cargo build --release --offline --quiet \
        --manifest-path "$1/Cargo.toml" --workspace --bins --examples >&2 \
        || { echo "building $1 failed" >&2; exit 2; }
}
echo "building the change ($root) and the parent ($rev) into $work" >&2
build "$root" "$work/change-target"
build "$parent_src" "$work/parent-target"

examples="$(cd "$root/examples" && ls -- *.rs; cd "$parent_src/examples" && ls -- *.rs)"
examples="$(printf '%s\n' "$examples" | sed 's/\.rs$//' | sort -u)"

outputs() { # outputs SIDE
    local side="$1" bin out
    bin="$work/$side-target/release"
    out="$work/$side-out"
    rm -rf "$out"
    mkdir -p "$out"
    (
        cd "$out"
        "$bin/run_all" --quick > run_all_quick.txt
        "$bin/run_all" --paper > run_all_paper.txt
        "$bin/ablation_skew" --quick > ablation_skew.txt
        for ex in $examples; do
            if [ -x "$bin/examples/$ex" ]; then
                "$bin/examples/$ex" > "example_$ex.txt"
            else
                echo "no example $ex on this side" > "example_$ex.txt"
            fi
        done
        for b in bench_stage_cost bench_sim bench_scenarios bench_cluster; do
            "$bin/$b" --quick > /dev/null
        done
    )
}
echo "running both sides" >&2
outputs change
outputs parent

# Drop the host-clock keys and print the rest in one canonical form.
simulated() { # simulated FILE
    python3 - "$1" <<'EOF'
import json, sys

HOST = {"stages_per_sec", "fleet_stages_per_s", "wall_s", "passes"}

def strip(value):
    if isinstance(value, dict):
        return {k: strip(v) for k, v in value.items()
                if k not in HOST and not k.startswith("host_")}
    if isinstance(value, list):
        return [strip(v) for v in value]
    return value

with open(sys.argv[1]) as f:
    print(json.dumps(strip(json.load(f)), indent=1, sort_keys=True))
EOF
}

status=0
compare() { # compare LABEL PARENT_FILE CHANGE_FILE
    if ! diff -u --label "parent/$1" --label "change/$1" "$2" "$3"; then
        status=1
    fi
}
for f in run_all_quick.txt run_all_paper.txt ablation_skew.txt BENCH_cluster_snapshot.json; do
    compare "$f" "$work/parent-out/$f" "$work/change-out/$f"
done
for ex in $examples; do
    compare "example_$ex.txt" "$work/parent-out/example_$ex.txt" "$work/change-out/example_$ex.txt"
done
for b in stage_cost sim scenarios cluster; do
    f="BENCH_$b.json"
    simulated "$work/parent-out/$f" > "$work/parent-out/$f.simulated"
    simulated "$work/change-out/$f" > "$work/change-out/$f.simulated"
    compare "$f (simulated keys)" "$work/parent-out/$f.simulated" "$work/change-out/$f.simulated"
done

if [ "$status" -eq 0 ]; then
    echo "identical"
fi
exit "$status"
