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
bench_kernels
"
for b in $BENCHES; do
  echo "###############################################################"
  echo "### $b"
  echo "###############################################################"
  if [ "$b" = "bench_kernels" ]; then
    # google-benchmark binary (GEMM GFLOP/s per block size, factorization
    # per thread count). Its JSON is a per-run artifact, like the one CI's
    # bench-smoke job uploads, not a committed history.
    "build/bench/$b" --benchmark_out=BENCH_kernels.json \
      --benchmark_out_format=json || note_failure "$b"
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
