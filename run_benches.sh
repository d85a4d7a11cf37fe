#!/bin/sh
# Regenerates every table/figure (paper-core experiments first, then the
# ablations and microbenchmarks). Usage: ./run_benches.sh [> bench_output.txt]
# Exits nonzero if any bench failed (each failure is still reported inline
# and the remaining benches still run).
FAILED=""
note_failure() {
  echo "BENCH FAILED: $1"
  FAILED="$FAILED $1"
}
BENCHES="
bench_table1_testbed
bench_table2_large
bench_fig2_characteristics
bench_fig3_refinement
bench_fig5_berr
bench_fig4_error_scatter
bench_fig6_step_fractions
bench_table3_factor_scaling
bench_table4_solve_scaling
bench_table5_balance_comm
bench_motivation_nopivot
bench_ablation_pipeline
bench_ablation_edag
bench_ablation_options
bench_ablation_solvelevels
bench_ablation_densetail
bench_smp_vs_dist
bench_ablation_relax
bench_ablation_blocksize
bench_machine_epochs
bench_dist_backend
bench_hostile
bench_serve
bench_serve_dist
bench_mixed
bench_delta
bench_autotune
bench_kernels
"
for b in $BENCHES; do
  echo "###############################################################"
  echo "### $b"
  echo "###############################################################"
  if [ "$b" = "bench_serve" ]; then
    # Serving layer: cold vs pattern-hit vs value-hit per-request cost and
    # batched vs unbatched throughput, recorded machine-readable next to
    # this script (the CI serve-smoke artifact).
    "build/bench/$b" --out=BENCH_serve.json || note_failure "$b"
  elif [ "$b" = "bench_serve_dist" ]; then
    # Sharded serving tier: fleet-vs-single-node cache capacity under one
    # per-rank byte budget (the ~R x retention claim) and kill-rank chaos
    # accounting, recorded machine-readable next to this script (the CI
    # serve-dist artifact).
    "build/bench/$b" --out=BENCH_serve_dist.json || note_failure "$b"
  elif [ "$b" = "bench_dist_backend" ]; then
    # Distributed backend: pipelined-vs-strict makespan model, real
    # message/byte counters and look-ahead hits per grid shape, recorded
    # machine-readable next to this script.
    "build/bench/$b" --out=BENCH_dist.json || note_failure "$b"
  elif [ "$b" = "bench_hostile" ]; then
    # Adversarial testbed vs the recovery ladder: rung reached, backward
    # error, and ladder time against the GEPP baseline per hostile matrix,
    # recorded machine-readable next to this script (the CI
    # hostile-matrices artifact).
    "build/bench/$b" --out=BENCH_hostile.json || note_failure "$b"
  elif [ "$b" = "bench_mixed" ]; then
    # Mixed precision: float-vs-double GEMM GF/s per block size and
    # mixed-vs-double end-to-end factor+solve+refine time over the full
    # testbed, recorded machine-readable next to this script (the CI
    # bench-smoke artifact behind the INTERNALS §16 table).
    "build/bench/$b" --out=BENCH_mixed.json || note_failure "$b"
  elif [ "$b" = "bench_delta" ]; then
    # Delta refactorization: full-vs-delta refactorize cost per transient
    # step on circuit-class generators, windowed and scattered drift
    # shapes at 1/5/25% changed columns, recorded machine-readable next
    # to this script (the CI bench-smoke artifact behind the
    # EXPERIMENTS.md table).
    "build/bench/$b" --out=BENCH_delta.json || note_failure "$b"
  elif [ "$b" = "bench_kernels" ]; then
    # google-benchmark binary (GEMM GFLOP/s per block size, factorization
    # per thread count). Its JSON is a per-run artifact, like the one CI's
    # bench-smoke job uploads, not a committed history.
    "build/bench/$b" --benchmark_out=BENCH_kernels.json \
      --benchmark_out_format=json || note_failure "$b"
  elif [ "$b" = "bench_autotune" ]; then
    # Autotuning: calibrated machine constants, tuned-vs-default factor
    # time over the testbed, and the adaptive serve controller's
    # step-change experiment, recorded machine-readable next to this
    # script (the CI autotune-smoke artifact). The calibration is cached
    # across runs when GESP_TUNE_CACHE points at a writable path.
    "build/bench/$b" --out=BENCH_autotune.json || note_failure "$b"
  else
    "build/bench/$b" || note_failure "$b"
  fi
  echo
done

echo "###############################################################"
echo "### observability snapshot (BENCH_trace.json / BENCH_metrics.json)"
echo "###############################################################"
# Observability snapshot: a traced 4-thread
# solve (repeated, so per-call vs cumulative phase times both appear) on
# the transonic-airfoil proxy, plus the full metrics registry. Open the
# trace in chrome://tracing; validate with tools/check_trace.py.
build/tools/gesp_solve testbed:af23560-s --threads=4 --repeat=2 \
  --trace=BENCH_trace.json --metrics-json=BENCH_metrics.json \
  || note_failure "gesp_solve trace"

if [ -n "$FAILED" ]; then
  echo "FAILED BENCHES:$FAILED"
  exit 1
fi
