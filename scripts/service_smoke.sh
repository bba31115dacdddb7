#!/usr/bin/env bash
# End-to-end smoke of the campaign service: start sdiqd, run a tiny
# sampled campaign against it with sdiq -remote, and require the
# client-side AND server-side CSV exports to be byte-identical to the
# same spec run locally. The paper's figure suite (-experiment all, CSV)
# rendered from a remote run must equal the local rendering too. Also
# exercises /metrics and graceful SIGTERM drain, then re-runs the
# service with -auth: unauthenticated probes must be refused with 401
# and the authenticated sweep must still be byte-identical. CI runs this
# on every push; it needs only bash, curl and go.
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR="${SDIQD_ADDR:-127.0.0.1:8471}"
WORK="$(mktemp -d)"
SRV_PID=""
trap 'kill "$SRV_PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT

echo "== build"
go build -o "$WORK/sdiqd" ./cmd/sdiqd
go build -o "$WORK/sdiq" ./cmd/sdiq

echo "== start sdiqd on $ADDR"
"$WORK/sdiqd" -addr "$ADDR" -cache "$WORK/cache" -quota 8 >"$WORK/sdiqd.log" 2>&1 &
SRV_PID=$!
for _ in $(seq 1 50); do
    curl -fs "http://$ADDR/healthz" >/dev/null 2>&1 && break
    sleep 0.2
done
curl -fs "http://$ADDR/healthz" >/dev/null

SPEC=(-experiment sweep -sweep "iq.entries=32,80" -budget 60000 -seed 7 -sample on -format csv)

echo "== remote campaign via sdiq -remote"
"$WORK/sdiq" -remote "http://$ADDR" "${SPEC[@]}" -export "$WORK/remote.csv" >/dev/null

echo "== same campaign locally"
"$WORK/sdiq" "${SPEC[@]}" -export "$WORK/local.csv" >/dev/null

echo "== compare client-side export"
diff "$WORK/remote.csv" "$WORK/local.csv"

echo "== compare server-side export"
ID=$(curl -fs "http://$ADDR/v1/campaigns" | grep -o '"id": *"[^"]*"' | head -1 | sed 's/.*"\(c[0-9]*\)"/\1/')
[ -n "$ID" ] || { echo "no campaign id found"; exit 1; }
curl -fs "http://$ADDR/v1/campaigns/$ID/export?format=csv" >"$WORK/server.csv"
diff "$WORK/server.csv" "$WORK/local.csv"

echo "== figure suite via sdiq -remote must match a local run"
FIGS=(-experiment all -format csv -budget 20000 -seed 7)
"$WORK/sdiq" -remote "http://$ADDR" "${FIGS[@]}" >"$WORK/remote-figs.csv"
"$WORK/sdiq" "${FIGS[@]}" >"$WORK/local-figs.csv"
diff "$WORK/remote-figs.csv" "$WORK/local-figs.csv"

echo "== metrics"
curl -fs "http://$ADDR/metrics" | grep -E '^sdiqd_(jobs_executed_total|job_cache_hits_total|job_dedup_hits_total|insts_per_second) ' | tee "$WORK/metrics.txt"
grep -q '^sdiqd_jobs_executed_total [1-9]' "$WORK/metrics.txt"

echo "== graceful drain"
kill -TERM "$SRV_PID"
for _ in $(seq 1 50); do
    kill -0 "$SRV_PID" 2>/dev/null || break
    sleep 0.2
done
if kill -0 "$SRV_PID" 2>/dev/null; then
    echo "sdiqd ignored SIGTERM"; exit 1
fi
grep -q "drained" "$WORK/sdiqd.log"

echo "== restart sdiqd with -auth"
TOKEN="smoke-tenant-secret"
cat >"$WORK/tokens.json" <<EOF
{"tokens": [{"token": "$TOKEN", "principal": "smoke", "role": "tenant"}]}
EOF
"$WORK/sdiqd" -addr "$ADDR" -cache "$WORK/cache" -quota 8 -auth "$WORK/tokens.json" >"$WORK/sdiqd-auth.log" 2>&1 &
SRV_PID=$!
for _ in $(seq 1 50); do
    curl -fs "http://$ADDR/healthz" >/dev/null 2>&1 && break
    sleep 0.2
done
curl -fs "http://$ADDR/healthz" >/dev/null

echo "== unauthenticated and bad-token probes must be 401"
CODE=$(curl -s -o /dev/null -w '%{http_code}' "http://$ADDR/v1/campaigns")
[ "$CODE" = "401" ] || { echo "no-token probe got $CODE, want 401"; exit 1; }
CODE=$(curl -s -o /dev/null -w '%{http_code}' -H "Authorization: Bearer wrong-token" "http://$ADDR/v1/campaigns")
[ "$CODE" = "401" ] || { echo "bad-token probe got $CODE, want 401"; exit 1; }

echo "== authenticated campaign must still be byte-identical"
"$WORK/sdiq" -remote "http://$ADDR" -token "$TOKEN" "${SPEC[@]}" -export "$WORK/authed.csv" >/dev/null
diff "$WORK/authed.csv" "$WORK/local.csv"
# Snapshot metrics to a file before grepping: grep -q closing the pipe
# early would fail curl (and the script, under pipefail) spuriously.
curl -fs "http://$ADDR/metrics" >"$WORK/metrics-auth.txt"
grep -q '^sdiqd_auth_failures_total [1-9]' "$WORK/metrics-auth.txt" || {
    echo "refused probes were not counted"; exit 1
}

kill -TERM "$SRV_PID"

echo "service smoke OK"
