#!/bin/sh
# Runs every workload once from the checkout root:
#   sh perfbench/all.sh [seed] [seconds] [trace]
for w in real padic bend; do
    python3 perfbench/run.py --workload "$w" --seed "${1:-1}" \
        --seconds "${2:-25}" --trace "${3:-0}" || exit
done
