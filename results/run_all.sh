#!/bin/sh
# Regenerates every table and figure and captures the output under
# results/. First argument = instruction budget per configuration
# (default 800,000, the budget EXPERIMENTS.md and README.md cite).
set -e
budget="${1:-800000}"
cd "$(dirname "$0")/.."
for bin in table1 table2 table3 fig2a fig2b fig2c fig3 fig7 fig8 fig9 \
           fig10 fig11 fig12 fig13 fig14 fig15 ablations scheduler partitions ext_1gb ext_icache \
           multicore; do
    echo "== $bin =="
    cargo run --release -q -p seesaw-bench --bin "$bin" -- "$budget" \
        | tee "results/$bin.txt"
done
