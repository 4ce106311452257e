#!/usr/bin/env bash
# Alternating A/B pairs of the repository benchmark (perfbench/) between
# the working tree and a parent revision.
#
#   ci/perf_pairs.sh [--pairs N] [--seconds S] [--work DIR] REV WORKLOAD... | all
#
# Builds perfbench twice, each into its own target directory under the
# work directory: once from the working tree and once from REV, checked
# out with `git archive` into a temporary source tree. perfbench builds
# rewrite perfbench/Cargo.lock, so the script puts each tree's lock file
# back afterwards. Then, for each WORKLOAD in turn (`all` means every
# BENCHMARK.json workload, in file order), it runs N pairs (default 10)
# with seeds 1..N, each run `run_seconds` long (from BENCHMARK.json
# unless --seconds says otherwise). The side that runs first alternates
# from pair to pair.
#
# For each workload, and for every end-to-end metric in BENCHMARK.json,
# it prints one table row: both sides' medians and quartiles, and in
# how many pairs the change was better.
# Two verdicts follow each metric:
#   gain        at least 9 of 10 pairs better, and a median gap larger
#               than the parent's quartile spread (q3 - q1);
#   regression  the change's median worse than the parent's by more
#               than the metric's BENCHMARK.json bound.
#
# Exits 1 as soon as any run reports `correct: false`, 2 on usage or
# build errors. The work directory (default: a fresh `mktemp -d`) keeps
# the builds and a results.jsonl with every run's JSON line, tagged with
# its workload.
# Nothing under perfbench/ changes. CI does not run this script.
set -euo pipefail

usage() {
    sed -n '5p' "$0" | sed 's/^# *//' >&2
    exit 2
}

pairs=10
seconds=""
work=""
while [ $# -gt 0 ]; do
    case "$1" in
        --pairs) pairs="${2:?}"; shift 2 ;;
        --seconds) seconds="${2:?}"; shift 2 ;;
        --work) work="${2:?}"; shift 2 ;;
        -h|--help) usage ;;
        --*) echo "unknown option $1" >&2; usage ;;
        *) break ;;
    esac
done
[ $# -ge 2 ] || usage
rev="$1"
shift
case "$pairs" in ''|*[!0-9]*|0) echo "--pairs takes a positive integer" >&2; exit 2 ;; esac

root="$(git rev-parse --show-toplevel)"
cd "$root"
git rev-parse --verify --quiet "$rev^{commit}" > /dev/null \
    || { echo "not a revision: $rev" >&2; exit 2; }
known="$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"
if [ "$*" = all ]; then
    set -- $known
fi
for workload in "$@"; do
    case " $known " in
        *" $workload "*) ;;
        *) echo "not a BENCHMARK.json workload: $workload" >&2; exit 2 ;;
    esac
done
if [ -z "$seconds" ]; then
    seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
fi
if [ -z "$work" ]; then
    work="$(mktemp -d)"
fi
mkdir -p "$work"
work="$(cd "$work" && pwd)"

# ---- build both sides ----
parent_src="$work/parent-src"
rm -rf "$parent_src"
mkdir -p "$parent_src"
git archive "$rev" | tar -x -C "$parent_src"

build() { # build TREE TARGET_DIR
    local tree="$1" target="$2" lock
    lock="$(mktemp)"
    cp "$tree/perfbench/Cargo.lock" "$lock"
    local status=0
    CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
        --manifest-path "$tree/perfbench/Cargo.toml" >&2 || status=$?
    cp "$lock" "$tree/perfbench/Cargo.lock"
    rm -f "$lock"
    if [ "$status" -ne 0 ]; then
        echo "building perfbench in $tree failed" >&2
        exit 2
    fi
}
echo "building the change ($root) and the parent ($rev) into $work" >&2
build "$root" "$work/change-target"
build "$parent_src" "$work/parent-target"
change_exe="$work/change-target/release/duplex-perfbench"
parent_exe="$work/parent-target/release/duplex-perfbench"

# ---- alternating pairs ----
results="$work/results.jsonl"
: > "$results"
run() { # run WORKLOAD SIDE SEED
    local workload="$1" side="$2" seed="$3" tree exe line
    if [ "$side" = change ]; then tree="$root"; exe="$change_exe"; else tree="$parent_src"; exe="$parent_exe"; fi
    line="$(cd "$tree" && "$exe" --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0 | tail -n 1)"
    if ! python3 -c 'import json, sys; sys.exit(0 if json.loads(sys.argv[1])["correct"] else 1)' "$line"; then
        echo "$side seed $seed: correct is false" >&2
        echo "$line" >&2
        exit 1
    fi
    printf '{"workload": "%s", "side": "%s", "seed": %s, "result": %s}\n' \
        "$workload" "$side" "$seed" "$line" >> "$results"
}

# ---- report ----
report() { # report WORKLOAD
python3 - "$results" "$root/BENCHMARK.json" "$1" "$rev" <<'EOF'
import json
import math
import statistics
import sys

results_path, spec_path, workload, rev = sys.argv[1:]
spec = json.load(open(spec_path))
runs = {"change": {}, "parent": {}}
for line in open(results_path):
    row = json.loads(line)
    if row["workload"] == workload:
        runs[row["side"]][row["seed"]] = row["result"]
seeds = sorted(runs["change"])
n = len(seeds)
# The gain rule asks for 9 of 10 pairs; other pair counts scale it.
need = math.ceil(0.9 * n)


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


print(f"{workload}: {n} alternating pairs, change = working tree, parent = {rev}")
print(f"{'metric':<28} {'parent median [q1, q3]':>36} {'change median [q1, q3]':>36}"
      f" {'delta':>8} {'better':>7}  verdicts")
for m in spec["end_to_end"]:
    name, higher, bound = m["name"], m["better"] == "higher", m["bound"]
    old = [runs["parent"][s]["metrics"][name]["value"] for s in seeds]
    new = [runs["change"][s]["metrics"][name]["value"] for s in seeds]
    oq1, omed, oq3 = quartiles(old)
    nq1, nmed, nq3 = quartiles(new)
    better = sum((b > a) if higher else (b < a) for a, b in zip(old, new))
    gap = (nmed - omed) if higher else (omed - nmed)
    rel = (nmed - omed) / omed if omed else 0.0
    worse = -gap / abs(omed) if omed else 0.0
    gain = better >= need and gap > (oq3 - oq1)
    regression = worse > bound
    verdicts = ("GAIN" if gain else "no gain") + ", " + (
        f"REGRESSION (> {bound})" if regression else f"within bound {bound}")
    print(f"{name:<28} {omed:>12.6g} [{oq1:>10.6g}, {oq3:>10.6g}]"
          f" {nmed:>12.6g} [{nq1:>10.6g}, {nq3:>10.6g}]"
          f" {rel:>+8.2%} {better:>4}/{n:<2}  {verdicts}")
for side in ("parent", "change"):
    attempted = sum(runs[side][s]["attempted"] for s in seeds)
    failed = sum(runs[side][s]["failed"] for s in seeds)
    print(f"{side}: {failed} of {attempted} operations failed")
EOF
}

first=1
for workload in "$@"; do
    for seed in $(seq 1 "$pairs"); do
        if [ $((seed % 2)) -eq 1 ]; then order="change parent"; else order="parent change"; fi
        for side in $order; do
            echo "$workload pair $seed/$pairs: $side" >&2
            run "$workload" "$side" "$seed"
        done
    done
    [ "$first" -eq 1 ] || echo
    first=0
    report "$workload"
done
