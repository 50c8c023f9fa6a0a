#!/bin/sh
# Print the benchmark's simulated end-to-end metrics for every workload at
# the default seed and the held-out seed, one line per (workload, seed),
# in the format of results/golden_perfbench.txt. Simulated metrics do not
# depend on the run length, so one-second runs are enough (serve still
# runs its four passes). Run from the repository root:
#
#   sh .github/scripts/perfbench_sim_metrics.sh > results/golden_perfbench.txt
#   sh .github/scripts/perfbench_sim_metrics.sh | diff results/golden_perfbench.txt -
set -eu
metrics="ok_frac sim_gflops model_err_pct sim_p50_ms sim_p99_ms sim_p50_ms.busy sim_p99_ms.busy slo_frac"
echo "# perfbench simulated metrics; regenerate with .github/scripts/perfbench_sim_metrics.sh"
for w in sweep batch serve; do
  for s in 1 20120521; do
    json=$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
      --workload "$w" --seed "$s" --seconds 1 | tail -n 1)
    line="$w $s"
    for m in $metrics; do
      v=$(printf '%s\n' "$json" | sed -n "s/.*\"$m\": {\"value\": \([^,]*\),.*/\1/p")
      if [ -z "$v" ]; then
        echo "perfbench $w seed $s printed no $m" >&2
        exit 1
      fi
      line="$line $m=$v"
    done
    echo "$line"
  done
done
