#!/usr/bin/env bash
# Chaos-test the roofline-as-a-service daemon: run it with failpoints
# armed (RFL_FAILPOINTS) and assert the robustness contract holds
# under injected faults —
#   * transient cache-append faults are absorbed by retry (the
#     campaign still succeeds, rfl_retry_* counters move);
#   * a campaign with a spent `timeout =` budget lands in timed_out
#     (504 on artifacts, well-formed status JSON) while a concurrent
#     patient campaign completes;
#   * an injected artifact-stream fault degrades to a clean 503, and
#     the next fetch succeeds;
#   * dropped/garbled connections (http.accept / http.recv faults)
#     never crash or wedge the daemon;
#   * a hostile body naming a server file (machine = @/etc/...) gets
#     a 400 without the file being read;
#   * dedup still holds, /metricsz exposes rfl_failpoint_* and
#     rfl_retry_* families, and SIGTERM still exits 0.
# Run by CI in both the Release and ASan/UBSan jobs:
#   tools/chaos_smoke.sh <build-dir>
set -euo pipefail

BUILD=${1:-build}
WORK=$(mktemp -d)
trap 'kill "$SERVE_PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT

# Deterministic chaos: probabilistic failpoints draw from per-name
# streams seeded by the name, so this exact schedule reproduces.
#   cache.spill.append  first two evaluations fail -> exercised retry
#   job.simulate        every simulate stage stalls 200 ms; campaign A
#                       needs >= 400 ms of stalls (ceiling before
#                       measures), so its 0.3 s budget must blow
#   api.stream          first artifact fetch fails -> clean 503
#   http.recv           10% of requests die mid-read
#   http.accept         5% of connections dropped at accept
export RFL_FAILPOINTS="cache.spill.append=error:count=2,\
job.simulate=sleep(200),\
api.stream=error:count=1,\
http.recv=error:p=0.1,\
http.accept=error:p=0.05"

"$BUILD"/roofline_serve --port 0 --port-file "$WORK/port" --quiet \
    --out "$WORK/out" > "$WORK/serve.log" 2>&1 &
SERVE_PID=$!

for _ in $(seq 1 100); do
    [ -s "$WORK/port" ] && break
    kill -0 "$SERVE_PID" || { echo "FAIL: daemon died on startup"; \
        cat "$WORK/serve.log"; exit 1; }
    sleep 0.1
done
[ -s "$WORK/port" ] || { echo "FAIL: no port file"; exit 1; }
PORT=$(cat "$WORK/port")
BASE="http://127.0.0.1:$PORT"
echo "daemon (chaos mode) on $BASE"
grep -q "failpoint(s) armed" "$WORK/serve.log" ||
    { echo "FAIL: daemon did not arm RFL_FAILPOINTS"; exit 1; }

# Every request may be eaten by http.recv/http.accept faults; a
# well-behaved client retries. The daemon must survive all of it.
req() { # req <curl args...> -> body on stdout
    local out
    for _ in $(seq 1 30); do
        if out=$(curl -fsS --max-time 10 "$@" 2>/dev/null); then
            printf '%s' "$out"
            return 0
        fi
        kill -0 "$SERVE_PID" || { echo "FAIL: daemon died" >&2; \
            cat "$WORK/serve.log" >&2; return 1; }
        sleep 0.05
    done
    echo "FAIL: request $* never succeeded in 30 tries" >&2
    return 1
}
status_of() { # status_of <url> -> HTTP status code (retries transport)
    local code
    for _ in $(seq 1 30); do
        code=$(curl -s --max-time 10 -o /dev/null -w '%{http_code}' \
            "$1" || true)
        [ "$code" != 000 ] && { printf '%s' "$code"; return 0; }
        sleep 0.05
    done
    printf '000'
}

req "$BASE/healthz" | grep -q '"status":"ok"'

# Campaign A: a whole-run budget the injected simulate stalls are
# guaranteed to blow (two dependent 200 ms stalls > 0.3 s).
SPEC_TIMEOUT='name = chaos-timeout
machine = small
kernel = daxpy:n=4096
kernel = sum:n=4096
timeout = 0.3
variant = cold-1c: protocol=cold cores=0 reps=1'

# Campaign B: same shape, no budget — must complete despite the same
# stalls and the injected cache-append faults.
SPEC_PATIENT='name = chaos-patient
machine = small
kernel = daxpy:n=4096
kernel = sum:n=4096
variant = cold-1c: protocol=cold cores=0 reps=1'

# Specs go through files, not pipes: req() retries after injected
# connection faults, and a pipe cannot be replayed.
printf '%s\n' "$SPEC_TIMEOUT" > "$WORK/spec_a"
printf '%s\n' "$SPEC_PATIENT" > "$WORK/spec_b"

ID_A=$(req -X POST --data-binary @"$WORK/spec_a" \
    "$BASE/v1/campaigns" |
    python3 -c 'import json,sys; print(json.load(sys.stdin)["id"])')
ID_B=$(req -X POST --data-binary @"$WORK/spec_b" \
    "$BASE/v1/campaigns" |
    python3 -c 'import json,sys; print(json.load(sys.stdin)["id"])')
echo "tickets: timeout=$ID_A patient=$ID_B"

poll() { # poll <id> <want-state> <fail-states...>
    local id=$1 want=$2 state
    shift 2
    for _ in $(seq 1 600); do
        state=$(req "$BASE/v1/campaigns/$id" | python3 -c \
            'import json,sys; print(json.load(sys.stdin)["state"])')
        [ "$state" = "$want" ] && return 0
        for bad in "$@"; do
            [ "$state" = "$bad" ] && { echo "FAIL: $id hit '$state'" \
                "(wanted '$want')"; req "$BASE/v1/campaigns/$id"; \
                return 1; }
        done
        sleep 0.1
    done
    echo "FAIL: $id stuck (wanted '$want')"
    return 1
}

poll "$ID_A" timed_out done failed
poll "$ID_B" done failed timed_out

# The timed-out ticket reports a well-formed status with the deadline
# error, and its artifact routes answer 504 — never a hang.
req "$BASE/v1/campaigns/$ID_A" | python3 -c '
import json, sys
s = json.load(sys.stdin)
assert s["state"] == "timed_out", s
assert "deadline exceeded" in s["error"], s
print("timed_out status OK:", s["error"])'
CODE=$(status_of "$BASE/v1/campaigns/$ID_A/analysis")
[ "$CODE" = 504 ] || { echo "FAIL: timed-out analysis gave $CODE," \
    "want 504"; exit 1; }

# api.stream=error:count=1 eats exactly one artifact fetch: first a
# clean 503, then the real document.
CODE=$(status_of "$BASE/v1/campaigns/$ID_B/analysis")
[ "$CODE" = 503 ] || { echo "FAIL: injected stream fault gave $CODE," \
    "want 503"; exit 1; }
req "$BASE/v1/campaigns/$ID_B/analysis" > "$WORK/analysis.json"
python3 tools/check_bench_schema.py "$WORK/analysis.json"

# Dedup must hold under chaos: resubmitting B joins the done ticket.
req -X POST --data-binary @"$WORK/spec_b" "$BASE/v1/campaigns" |
    grep -q '"deduplicated":true'

# Hostile body: a submitted spec naming a server file is refused with
# a 400 before the path is opened (the same answer for a readable file
# and a special one), and the daemon stays up.
for target in /etc/os-release /dev/zero; do
    printf 'machine = @%s\nkernel = sum:n=256\nvariant = v: cores=0\n' \
        "$target" > "$WORK/spec_file"
    CODE=000
    for _ in $(seq 1 30); do
        CODE=$(curl -s --max-time 10 -o "$WORK/hostile.json" \
            -w '%{http_code}' -X POST --data-binary @"$WORK/spec_file" \
            "$BASE/v1/campaigns" || true)
        [ "$CODE" != 000 ] && break
        sleep 0.05
    done
    [ "$CODE" = 400 ] || { echo "FAIL: machine = @$target gave $CODE," \
        "want 400"; exit 1; }
    grep -q 'accepted only in a campaign file' "$WORK/hostile.json" || {
        echo "FAIL: machine = @$target: wrong error"; \
        cat "$WORK/hostile.json"; exit 1; }
done
req "$BASE/healthz" | grep -q '"status":"ok"'

# Connection churn: hammer endpoints through the lossy accept/recv
# path. Individual requests may die; the daemon must not.
for i in $(seq 1 60); do
    curl -s --max-time 5 -o /dev/null "$BASE/healthz" || true
    curl -s --max-time 5 -o /dev/null "$BASE/statsz" || true
done
kill -0 "$SERVE_PID" || { echo "FAIL: daemon died under churn"; \
    cat "$WORK/serve.log"; exit 1; }
req "$BASE/healthz" | grep -q '"status":"ok"'

# The registry must expose the chaos itself: failpoint triggers and
# absorbed retries are first-class metric families.
req "$BASE/metricsz" > "$WORK/metrics.prom"
python3 - "$WORK/metrics.prom" <<'EOF'
import sys

families = {}
for line in open(sys.argv[1]):
    if line.startswith("#") or not line.strip():
        continue
    name, _, value = line.rpartition(" ")
    family = name.split("{", 1)[0]
    families[family] = families.get(family, 0.0) + float(value)

def require_positive(family):
    if families.get(family, 0.0) <= 0.0:
        sys.exit(f"FAIL: /metricsz {family} = "
                 f"{families.get(family, '<absent>')}; chaos run must "
                 f"move fault-injection counters")

require_positive("rfl_failpoint_triggers_total")
require_positive("rfl_retry_attempts_total")
require_positive("rfl_retry_success_total")
require_positive("rfl_queue_timed_out")
require_positive("rfl_queue_executed_total")
print("chaos metricsz OK:",
      f"triggers={families['rfl_failpoint_triggers_total']:.0f}",
      f"retries={families['rfl_retry_attempts_total']:.0f}")
EOF

# Graceful shutdown still works with failpoints armed.
kill -TERM "$SERVE_PID"
if ! wait "$SERVE_PID"; then
    echo "FAIL: daemon exited non-zero on SIGTERM under chaos"
    cat "$WORK/serve.log"
    exit 1
fi
grep -q "shutting down gracefully" "$WORK/serve.log"
echo "chaos smoke OK"
