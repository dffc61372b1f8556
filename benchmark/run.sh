#!/usr/bin/env bash
# Builds the harness once and runs the whole suite: all four workloads
# untraced, then traced, at the default seed (42) and the held-out seed
# (1337).  Result lines land in benchmark/out/results/.
#
#   benchmark/run.sh                 the suite at both seeds
#   benchmark/run.sh --smoke         the same at n = 2 000 (seconds)
#   benchmark/run.sh --selfcheck     the untraced suite twice at seed 42,
#                                    second pass in reverse workload order;
#                                    fails if an end-to-end metric moves by
#                                    more than its bound in BENCHMARK.json
#                                    (needs python3)
#   benchmark/run.sh --spread        ten untraced runs per workload, each at
#                                    another seed; prints every end-to-end
#                                    metric's interquartile range as a share
#                                    of its median and fails if one exceeds
#                                    its bound (needs python3)
#
# Run from anywhere; paths are resolved against the repository root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

workloads=(mem-read-1m mem-churn-200k wire-read-200k routed-mixed-200k)
default_seed=42
held_out_seed=1337
seconds=6
smoke=()
selfcheck=0
spread=0
for arg in "$@"; do
    case "$arg" in
        --smoke) smoke=(--smoke); seconds=0.3 ;;
        --selfcheck) selfcheck=1 ;;
        --spread) spread=1 ;;
        *) echo "usage: benchmark/run.sh [--smoke] [--selfcheck | --spread]" >&2; exit 2 ;;
    esac
done

cargo build --release --offline --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/rsmi-benchmark"
results="benchmark/out/results"
mkdir -p "$results"

# run <workload> <seed> <trace> <tag>: keeps the header and result lines.
run() {
    local out="$results/$1.seed$2.trace$3$4.jsonl"
    echo "== $1 seed $2 trace $3 -> $out" >&2
    "$bin" --workload "$1" --seed "$2" --seconds "$seconds" --trace "$3" \
        --out-dir benchmark/out "${smoke[@]}" > "$out"
    tail -n 1 "$out"
}

if [ "$selfcheck" = 1 ]; then
    for w in "${workloads[@]}"; do run "$w" "$default_seed" 0 .pass1; done
    for ((i = ${#workloads[@]} - 1; i >= 0; i--)); do
        run "${workloads[i]}" "$default_seed" 0 .pass2
    done
    python3 - "$results" "$default_seed" "${workloads[@]}" <<'PY'
import json, sys
results, seed, workloads = sys.argv[1], sys.argv[2], sys.argv[3:]
bounds = {m["name"]: m for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
failed = False
for w in workloads:
    lines = [open(f"{results}/{w}.seed{seed}.trace0.pass{p}.jsonl").read().splitlines() for p in (1, 2)]
    notes = [json.loads(l[0])["notes"] for l in lines]
    for key in ("input.points_fnv64", "input.ops_fnv64"):
        if notes[0][key] != notes[1][key]:
            print(f"FAIL {w} {key}: {notes[0][key]} != {notes[1][key]}")
            failed = True
    runs = [json.loads(l[-1]) for l in lines]
    if not all(r["correct"] for r in runs):
        print(f"FAIL {w}: a pass reported wrong answers")
        failed = True
    for name, spec in bounds.items():
        a, b = (r["metrics"][name]["value"] for r in runs)
        spread = abs(a - b) / max(abs(a), abs(b), 1e-300)
        verdict = "ok" if spread <= spec["bound"] else "FAIL"
        failed |= verdict == "FAIL"
        print(f"{verdict:4} {w:18} {name:22} {a:14.6g} {b:14.6g} spread {spread:7.2%} bound {spec['bound']:.0%}")
sys.exit(1 if failed else 0)
PY
    exit
fi

if [ "$spread" = 1 ]; then
    for w in "${workloads[@]}"; do
        for seed in 1 2 3 4 5 6 7 8 9 10; do run "$w" "$seed" 0 ""; done
    done
    python3 - "$results" "${workloads[@]}" <<'PY'
import json, statistics, sys
results, workloads = sys.argv[1], sys.argv[2:]
bounds = {m["name"]: m["bound"] for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
failed = False
for w in workloads:
    runs = [json.loads(open(f"{results}/{w}.seed{s}.trace0.jsonl").read().splitlines()[-1]) for s in range(1, 11)]
    if not all(r["correct"] for r in runs):
        print(f"FAIL {w}: a run reported wrong answers")
        failed = True
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        # setup_s is exempt from the spread rule; a third of the bound is
        # the target, the bound itself the limit.
        verdict = "ok" if spread <= bound / 3 else "wide" if spread <= bound or name == "setup_s" else "FAIL"
        failed |= verdict == "FAIL"
        print(f"{verdict:4} {w:18} {name:22} median {median:14.6g} iqr/median {spread:7.2%} bound {bound:.0%}")
sys.exit(1 if failed else 0)
PY
    exit
fi

for seed in "$default_seed" "$held_out_seed"; do
    for trace in 0 1; do
        for w in "${workloads[@]}"; do run "$w" "$seed" "$trace" ""; done
    done
done
