#!/bin/sh
# Alternating parent/change pairs of one deepbench workload — the table a
# perf PR in this repository quotes (choosing-metrics guide, section 8):
#
#   tools/pairs.sh <parent-ref> <workload|all> [pairs=10] [seed=11] [seconds=20] [trace=0]
#
# `all` runs every workload BENCHMARK.json names, back to back, from one
# build of each side, and prints one table per workload — what a PR that
# claims no gain quotes to show nothing got worse anywhere — then one closing
# line naming every row marked `beyond bound` or `unresolved`, or `none`.
#
# Builds deepbench twice — from the committed files of <parent-ref>, unpacked
# (`git archive`, so nothing is registered in `.git`) into a temporary
# directory with a target directory of its own, and from the working tree
# into wherever a plain build of the package goes (so CI reuses the build its
# deepbench steps already made) — then runs <pairs> pairs, parent first in odd
# pairs and change first in even ones. For every end-to-end metric of
# BENCHMARK.json it prints both medians, both quartile distances (Q3 - Q1),
# the metric's bound (the share of the parent's median it may worsen by, as
# BENCHMARK.json declares it) with `beyond bound` on a row whose change
# median is worse than the parent's by more than that share and `unresolved`
# on a row whose parent quartile distance is wider than that share of the
# parent's median (the parent's own runs spread past the bound, so no
# regression can be read off the medians) unless every change run reads
# better than every parent run, the pairs the
# change won (ties count for neither side), every run's value
# with its calibration readings before and after the run, each run's
# `deepbench: <workload>:` summary line (the counts behind the timings), a
# line for each run whose calibration moved by more than 5 %, and whether the
# two sides agree on `result_digest`.
#
# A gain is claimed only when the change wins at least nine tenths of the
# pairs and the medians are further apart than the parent's own quartile
# distance, and a change is refused when any row reads `beyond bound`; a
# row that reads `unresolved` shows no regression and no absence of one. This
# script prints the numbers and those marks, its exit status does not judge
# them.
#
# With trace=1, after a workload's pairs each side makes one more run from
# its build, traced (`--trace 1`), and the script prints every per-layer
# metric whose two values differ, side by side with their ratio — where a
# change in an end-to-end row comes from. Equal rows (most counts) are left
# out. The trace files go into each side's target directory.
#
# Metrics are read from the last line of each run's stdout; the digest is on
# stderr in an untraced run, so stderr is kept beside it. Nothing under
# crates/bench/src/bin/deepbench/ is touched. A failed build, or a run whose
# checks fail (deepbench exits non-zero), fails the script. The temporary
# directory (parent checkout, its build, every run's output) is removed on
# exit; set TMPDIR to choose where it lives.
set -eu
cd "$(dirname "$0")/.."

if [ $# -lt 2 ]; then
    echo "usage: tools/pairs.sh <parent-ref> <workload|all> [pairs=10] [seed=11] [seconds=20] [trace=0]" >&2
    exit 2
fi
ref=$1
if [ "$2" = all ]; then
    workloads=$(sed -n 's/.*{"name": "\([a-z_]*\)", "why".*/\1/p' BENCHMARK.json)
else
    workloads=$2
fi
pairs=${3:-10}
seed=${4:-11}
seconds=${5:-20}
trace=${6:-0}
manifest=crates/bench/src/bin/deepbench/Cargo.toml

here=$(pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/parent"
git archive "$ref" | tar -x -C "$work/parent"

echo "== building deepbench at $ref and at the working tree" >&2
parent_target=$work/target-parent
change_target=${CARGO_TARGET_DIR:-$here/$(dirname "$manifest")/target}
case $change_target in
/*) ;;
*) change_target=$here/$change_target ;;
esac
(cd "$work/parent" &&
    CARGO_TARGET_DIR="$parent_target" cargo build --release --quiet --offline --manifest-path "$manifest")
cargo build --release --quiet --offline --manifest-path "$manifest"

# Direction and bound of every end-to-end metric, from the benchmark's own
# declaration.
awk '/"bound"/ {
    name = $0; sub(/.*"name": "/, "", name); sub(/".*/, "", name)
    better = $0; sub(/.*"better": "/, "", better); sub(/".*/, "", better)
    bound = $0; sub(/.*"bound": /, "", bound); sub(/[^-+.0-9eE].*/, "", bound)
    print name, better, bound
}' BENCHMARK.json >"$work/metrics"

# run <side> <checkout> <target dir> <pair>: one run of $workload from the
# side's own checkout root.
run() {
    (cd "$2" && "$3/release/deepbench" \
        --workload "$workload" --seed "$seed" --seconds "$seconds") \
        >"$work/$workload.$1.$4.out" 2>"$work/$workload.$1.$4.err"
}

# traced <side> <checkout> <target dir>: one `--trace 1` run of $workload,
# its trace file written under the side's target directory.
traced() {
    (cd "$2" && CARGO_TARGET_DIR="$3" "$3/release/deepbench" \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 1) \
        >"$work/$workload.$1.trace.out" 2>"$work/$workload.$1.trace.err"
}

# `name value` for every metric on the last stdout line of run output $1.
metric_values() {
    tail -n 1 "$1" | awk '{
        s = $0
        while (match(s, /"[a-z_0-9.]+": \{"value": [-+.0-9eE]+/)) {
            m = substr(s, RSTART, RLENGTH)
            s = substr(s, RSTART + RLENGTH)
            name = m; sub(/^"/, "", name); sub(/".*/, "", name)
            value = m; sub(/.*"value": /, "", value)
            print name, value
        }
    }'
}

# layers: one traced run per side, then the per-layer rows that differ.
layers() {
    echo "== $workload: one traced run per side" >&2
    traced parent "$work/parent" "$parent_target"
    traced change "$here" "$change_target"
    metric_values "$work/$workload.parent.trace.out" >"$work/layers.parent"
    metric_values "$work/$workload.change.trace.out" >"$work/layers.change"
    echo "== $workload, traced, per-layer rows that differ"
    awk '
        BEGIN { printf "%-40s %16s %16s %13s\n", "metric", "parent", "change", "change/parent" }
        FILENAME ~ /parent$/ { parent[$1] = $2; next }
        ($1 in parent) && parent[$1] != $2 {
            ratio = parent[$1] + 0 != 0 ? sprintf("%.3f", $2 / parent[$1]) : "-"
            printf "%-40s %16.6g %16.6g %13s\n", $1, parent[$1], $2, ratio
        }
    ' "$work/layers.parent" "$work/layers.change"
}

digests() {
    sed -n 's/.*result_digest \([0-9a-f]*\).*/\1/p' "$work/$workload.$1".*.err | sort -u | tr '\n' ' '
}

# measure: the pairs of $workload and its table.
measure() {
    i=1
    while [ "$i" -le "$pairs" ]; do
        echo "== $workload: pair $i of $pairs" >&2
        if [ $((i % 2)) -eq 1 ]; then
            run parent "$work/parent" "$parent_target" "$i"
            run change "$here" "$change_target" "$i"
        else
            run change "$here" "$change_target" "$i"
            run parent "$work/parent" "$parent_target" "$i"
        fi
        i=$((i + 1))
    done

    echo "== $workload, seed $seed, $seconds s, $pairs pair(s): parent $ref vs working tree"
    # `side pair metric value` for every metric on the last stdout line of a run.
    for side in parent change; do
        i=1
        while [ "$i" -le "$pairs" ]; do
            metric_values "$work/$workload.$side.$i.out" | sed "s/^/$side $i /"
            i=$((i + 1))
        done
    done >"$work/values"

    awk -v pairs="$pairs" -v workload="$workload" -v flagged="$work/flagged" '
        # Linear-interpolated quantile of v[1..n], sorted ascending.
        function quantile(v, n, q,    h, lo) {
            h = (n - 1) * q + 1; lo = int(h)
            return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
        }
        function summarise(side, name, out,    i, j, n, v, t) {
            n = 0
            for (i = 1; i <= pairs; i++) if ((side, i, name) in val) v[++n] = val[side, i, name]
            for (i = 2; i <= n; i++) for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
            out["median"] = quantile(v, n, 0.5)
            out["iqd"] = quantile(v, n, 0.75) - quantile(v, n, 0.25)
            out["min"] = v[1]; out["max"] = v[n]
        }
        FILENAME ~ /metrics$/ { order[++metrics] = $1; better[$1] = $2; bound[$1] = $3; next }
        { val[$1, $2, $3] = $4 + 0 }
        END {
            printf "%-18s %14s %12s %14s %12s %8s %6s  %s\n", "metric", "parent median", "parent Q3-Q1", "change median", "change Q3-Q1", "change/parent", "bound", "change wins"
            for (m = 1; m <= metrics; m++) {
                name = order[m]
                summarise("parent", name, p); summarise("change", name, c)
                wins = 0; losses = 0
                for (i = 1; i <= pairs; i++) {
                    d = val["change", i, name] - val["parent", i, name]
                    if (better[name] == "lower") d = -d
                    if (d > 0) wins++; else if (d < 0) losses++
                }
                ratio = p["median"] != 0 ? sprintf("%.3f", c["median"] / p["median"]) : "-"
                # Worse by more than the bound, a share of the parent median.
                worse = better[name] == "lower" ? c["median"] - p["median"] : p["median"] - c["median"]
                mark = worse > bound[name] * p["median"] ? "beyond bound" : ""
                # The parent spreads wider than the bound: unresolved, unless
                # every change run reads better than every parent run.
                apart = better[name] == "lower" ? c["max"] < p["min"] : c["min"] > p["max"]
                if (mark == "" && p["iqd"] > bound[name] * p["median"] && !apart) mark = "unresolved"
                if (mark != "") print workload " " name " (" mark ")" >>flagged
                printf "%-18s %14.4f %12.4f %14.4f %12.4f %13s %6.2f  %d of %d (%d lost, %s is better%s)\n", name, p["median"], p["iqd"], c["median"], c["iqd"], ratio, bound[name], wins, pairs, losses, better[name], mark == "" ? "" : ", " mark
            }
            print "== every run, in pair order"
            for (m = 1; m <= metrics; m++) {
                name = order[m]
                for (s = 1; s <= 2; s++) {
                    side = s == 1 ? "parent" : "change"
                    line = sprintf("%-18s %-6s", name, side)
                    for (i = 1; i <= pairs; i++) line = line sprintf(" %.4f", val[side, i, name])
                    print line
                }
            }
        }
    ' "$work/metrics" "$work/values"

    # Each run's calibration readings (its `deepbench: env` line) beside the
    # values above, and any run whose calibration moved: the deepbench README
    # reads a pair whose readings differ by more than 5 % as unresolved.
    for side in parent change; do
        line=$(printf '%-18s %-6s' calib_mops "$side")
        i=1
        while [ "$i" -le "$pairs" ]; do
            calib=$(sed -n 's/^deepbench: env .*"calib_mops_before":\([-+.0-9eE]*\),"calib_mops_after":\([-+.0-9eE]*\).*/\1->\2/p' \
                "$work/$workload.$side.$i.err")
            line="$line ${calib:--}"
            i=$((i + 1))
        done
        echo "$line"
    done
    # Each run's own summary line (`deepbench: <workload>: ...`), so a policy
    # or request-count claim shows its deterministic count (serve_zipf's hit
    # ratio, offline_build's docs and requests) beside the timings above.
    for side in parent change; do
        i=1
        while [ "$i" -le "$pairs" ]; do
            sed -n "s/^deepbench: $workload: /$side pair $i: /p" "$work/$workload.$side.$i.err"
            i=$((i + 1))
        done
    done
    for side in parent change; do
        i=1
        while [ "$i" -le "$pairs" ]; do
            sed -n "s/^deepbench: \(calibration moved .*\)/$side pair $i: \1/p" "$work/$workload.$side.$i.err"
            i=$((i + 1))
        done
    done

    parent_digest=$(digests parent)
    change_digest=$(digests change)
    if [ "$parent_digest" = "$change_digest" ]; then
        echo "== result_digest: match ($parent_digest)"
    else
        echo "== result_digest: DIFFER (parent $parent_digest, change $change_digest)"
    fi
}

for workload in $workloads; do
    measure
    if [ "$trace" = 1 ]; then
        layers
    fi
done
if [ "$2" = all ]; then
    if [ -s "$work/flagged" ]; then
        echo "== beyond bound or unresolved: $(awk '{printf "%s%s", (NR > 1 ? ", " : ""), $0}' "$work/flagged")"
    else
        echo "== beyond bound or unresolved: none"
    fi
fi
