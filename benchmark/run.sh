#!/usr/bin/env bash
# The iFlex benchmark: check the API allow-list, build, run.
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one workload, one run; the last line of output is the JSON result
#   bash benchmark/run.sh [--seed <n>] [--seconds <s>] [--smoke]
#       every workload, tracing off and then traced, one process each;
#       exits non-zero when any check fails
#
# Run it from the root of a checkout. It reads and writes only inside the
# checkout: the build goes to $CARGO_TARGET_DIR (default benchmark/target),
# traces to benchmark/out.
set -euo pipefail

here="$(dirname "$0")"

# The benchmark measures the default configuration through a small public
# API, so that it keeps building while ablation knobs and internal modules
# are deleted. Anything on this list in its sources is a mistake.
forbidden='use_[a-z_]+|reuse_enabled|morsel_tuples|annotate_policy'
forbidden+='|engine::(memo|incr|constraint|lplan|par)\b|iflex_engine'
forbidden+='|columnar|Columnar|(verify|refine|verify_value)_run'
forbidden+='|ExecStats|final_stats|iflex[_-]bench\b'
forbidden+='|\.stats\.(cache_hits|feature_cache|incr_|par_|shard_busy)'
if grep -rnE "$forbidden" "$here/src" "$here/Cargo.toml"; then
    echo "allow-list check failed: forbidden identifier under $here" >&2
    exit 3
fi

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
bin="${CARGO_TARGET_DIR:-$here/target}/release/iflex-benchmark"

case " $* " in
*" --workload "*)
    exec "$bin" --out "$here/out" "$@"
    ;;
esac

status=0
for workload in iterate-select iterate-join extract-cold service-sessions; do
    for trace in 0 1; do
        "$bin" --out "$here/out" --workload "$workload" --trace "$trace" "$@" || status=1
    done
done
exit "$status"
