#!/bin/sh
# Build (first time) and run the benchmark from anywhere:
#   benchmark/run.sh all --trace            every workload + the layer bill
#   benchmark/run.sh all --quick            the ~15 s smoke
#   benchmark/run.sh compare A.json B.json
#   benchmark/run.sh --workload wal_write --seed 1 --seconds 10 --trace 0
here=$(dirname "$0")
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"
