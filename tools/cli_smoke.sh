#!/usr/bin/env bash
# Smoke-test the command-line examples:
#   - analyze_custom_kernel (a kernel written outside the library on
#     kernels::KernelOf) exits 0 and measures W with 0.00% error;
#   - roofline_tool rejects each bad numeric flag with exit status 1
#     (a fatal() user error, not a panic) and names the flag on stderr.
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

# flag name | arguments. Every case must fail in the up-front flag
# check, before any kernel is built or any thread is started.
check_rejected() {
    local flag=$1
    shift
    local rc=0
    "$BUILD"/roofline_tool "$@" > "$WORK/tool.out" 2> "$WORK/tool.err" \
        || rc=$?
    if [ "$rc" -ne 1 ]; then
        echo "FAIL: roofline_tool $* exited $rc, want 1"
        cat "$WORK/tool.err"
        exit 1
    fi
    grep -q -- "--$flag" "$WORK/tool.err" || {
        echo "FAIL: roofline_tool $* did not name --$flag"
        cat "$WORK/tool.err"
        exit 1
    }
    echo "ok: roofline_tool $* -> exit 1 naming --$flag"
}

check_rejected lanes --lanes 3
check_rejected lanes --lanes 16
check_rejected reps --reps 0
check_rejected cores --native --cores 0
check_rejected cores --native --cores -3

echo "cli smoke: ok"
