#!/usr/bin/env bash
# Smoke-test the command-line examples:
#   - analyze_custom_kernel (a kernel written outside the library on
#     kernels::KernelOf) exits 0 and measures W with 0.00% error;
#   - roofline_tool, roofline_campaign, roofline_report and
#     roofline_serve reject each bad numeric flag with exit status 1
#     (a fatal() user error, not a panic or a silent wrap-around) and
#     name the flag on stderr.
# Run by CI in both the Release and ASan/UBSan jobs:
#   tools/cli_smoke.sh <build-dir>
set -euo pipefail

BUILD=${1:-build}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
export RFL_OUT_DIR="$WORK/out"

"$BUILD"/analyze_custom_kernel > "$WORK/custom.out"
grep -E 'W measured .*err 0\.00%' "$WORK/custom.out" || {
    echo "FAIL: analyze_custom_kernel printed no exact W line"
    cat "$WORK/custom.out"
    exit 1
}

# binary | flag name | arguments. Every case must fail in the up-front
# flag check, before any kernel is built or any thread is started; the
# timeout turns a binary that accepts the value (and a daemon that then
# serves forever) into a failure instead of a hang.
check_rejected() {
    local bin=$1 flag=$2
    shift 2
    local rc=0
    timeout 60 "$BUILD/$bin" "$@" > "$WORK/cli.out" 2> "$WORK/cli.err" \
        || rc=$?
    if [ "$rc" -ne 1 ]; then
        echo "FAIL: $bin $* exited $rc, want 1"
        cat "$WORK/cli.err"
        exit 1
    fi
    grep -q -- "--$flag" "$WORK/cli.err" || {
        echo "FAIL: $bin $* did not name --$flag"
        cat "$WORK/cli.err"
        exit 1
    }
    echo "ok: $bin $* -> exit 1 naming --$flag"
}

check_rejected roofline_tool lanes --lanes 3
check_rejected roofline_tool lanes --lanes 16
check_rejected roofline_tool reps --reps 0
check_rejected roofline_tool cores --native --cores 0
check_rejected roofline_tool cores --native --cores -3
check_rejected roofline_campaign threads --threads 4294967297
check_rejected roofline_report threads --threads -1
check_rejected roofline_serve port --port 70000
check_rejected roofline_serve http-threads --http-threads 4294967297

echo "cli smoke: ok"
