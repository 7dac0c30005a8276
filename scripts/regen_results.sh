#!/bin/sh
# Regenerates results/ from the campaign catalog: one per-point CSV per
# campaign, at the scale EXPERIMENTS.md quotes (1000 task sets per point
# for the set-based figures, the paper's 20 000 samples per benchmark,
# policy_arena at its default scale, automotive at 2 sets per point).
#
#   cargo build --release
#   scripts/regen_results.sh [OUT_DIR] [CHEBYMC]
#
# OUT_DIR defaults to results/, CHEBYMC to target/release/chebymc. The
# result stores go to a temporary directory that is removed on exit.
# Every campaign is seeded, so the CSVs are byte-identical run to run.
set -eu
out=${1:-results}
bin=${2:-target/release/chebymc}
stores=$(mktemp -d)
trap 'rm -rf "$stores"' EXIT
mkdir -p "$out"

run() {
    name=$1
    shift
    "$bin" exp run "$name" "$@" --store "$stores/$name.jsonl" \
        --csv "$out/$name.csv" --quiet >/dev/null
}

for name in table1 table2 fig1 fig2 runtime \
    ablation_optimizers ablation_constraints ablation_distributions \
    ablation_evt ablation_sigma ablation_noise \
    convergence convergence_population multi_sweep multi_runtime \
    policy_arena; do
    run "$name"
done
for name in fig3 fig4 fig5 fig6; do
    run "$name" --sets 1000
done
run automotive --sets 2
