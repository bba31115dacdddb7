#!/usr/bin/env bash
# End-to-end smoke of the distributed worker pool: start sdiqd, attach
# two sdiqw workers, run a sweep against the server with sdiq -remote,
# and require the export to be byte-identical to the same spec run
# locally — with at least one job actually executed by a remote worker.
# Then drain both workers (SIGTERM: finish, upload, deregister) and the
# server. The server and both workers run with -ckpt, so the sampled
# sweep also smokes checkpoint sharing: warm state generated on one
# worker must be shipped through the server and reused, never recomputed.
# Then the workers' checkpoint stores are emptied and every artifact on
# the server loses its last byte: a sweep at a new IQ size of the same
# warming identities must evict them (the server checks an artifact
# before shipping it, answers 404 and keeps the fleet's re-upload) and
# still export byte-identically to a local run.
# A second phase re-runs the whole fleet with -auth and
# -tenant-isolation: the worker carries its bearer token, bad-token
# probes are refused with 401, and the authed remote sweep is still
# byte-identical to the local run. Its worker runs with a one-byte
# -scratch-max-bytes, so it must end holding no artifact. CI runs this
# on every push; it needs only bash, curl and go.
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR="${SDIQD_ADDR:-127.0.0.1:8473}"
WORK="$(mktemp -d)"
SRV_PID=""; W1_PID=""; W2_PID=""
trap 'kill "$SRV_PID" "$W1_PID" "$W2_PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT

echo "== build"
go build -o "$WORK/sdiqd" ./cmd/sdiqd
go build -o "$WORK/sdiqw" ./cmd/sdiqw
go build -o "$WORK/sdiq" ./cmd/sdiq

echo "== start sdiqd on $ADDR"
"$WORK/sdiqd" -addr "$ADDR" -cache "$WORK/cache" -ckpt "$WORK/ckpt" -lease-ttl 5s >"$WORK/sdiqd.log" 2>&1 &
SRV_PID=$!
for _ in $(seq 1 50); do
    curl -fs "http://$ADDR/healthz" >/dev/null 2>&1 && break
    sleep 0.2
done
curl -fs "http://$ADDR/healthz" >/dev/null

echo "== start 2 sdiqw workers"
"$WORK/sdiqw" -server "http://$ADDR" -name smoke-1 -scratch "$WORK/scratch1" -ckpt "$WORK/ckpt1" -parallel 2 >"$WORK/sdiqw1.log" 2>&1 &
W1_PID=$!
"$WORK/sdiqw" -server "http://$ADDR" -name smoke-2 -scratch "$WORK/scratch2" -ckpt "$WORK/ckpt2" -parallel 2 >"$WORK/sdiqw2.log" 2>&1 &
W2_PID=$!
for _ in $(seq 1 50); do
    N=$(curl -fs "http://$ADDR/metrics" | awk '/^sdiqd_workers_connected /{print $2}')
    [ "${N:-0}" = "2" ] && break
    sleep 0.2
done
[ "$(curl -fs "http://$ADDR/metrics" | awk '/^sdiqd_workers_connected /{print $2}')" = "2" ] || {
    echo "workers never connected"; cat "$WORK"/sdiqw*.log; exit 1
}

SPEC=(-experiment sweep -sweep "iq.entries=32,80" -budget 60000 -seed 7 -sample on -format csv)

echo "== remote sweep via sdiq -remote (jobs leased to the fleet)"
"$WORK/sdiq" -remote "http://$ADDR" "${SPEC[@]}" -export "$WORK/remote.csv" >/dev/null

echo "== same sweep locally"
"$WORK/sdiq" "${SPEC[@]}" -export "$WORK/local.csv" >/dev/null

echo "== exports must be byte-identical"
diff "$WORK/remote.csv" "$WORK/local.csv"

echo "== worker/lease metrics"
curl -fs "http://$ADDR/metrics" | grep -E '^sdiqd_(workers_connected|jobs_remote_total|jobs_local_total|leases_granted_total|leases_expired_total|jobs_failed_total) ' | tee "$WORK/metrics.txt"
grep -q '^sdiqd_jobs_remote_total [1-9]' "$WORK/metrics.txt" || { echo "no job ran remotely"; exit 1; }
grep -q '^sdiqd_leases_expired_total 0' "$WORK/metrics.txt" || { echo "leases expired under a healthy fleet"; exit 1; }
grep -q '^sdiqd_jobs_failed_total 0' "$WORK/metrics.txt" || { echo "jobs failed"; exit 1; }

echo "== checkpoint reuse (warm state shipped through the server, not recomputed)"
curl -fs "http://$ADDR/metrics" | grep -E '^sdiqd_ckpt_(artifacts|generated_total|hits_total|bytes_shipped_total) ' | tee "$WORK/ckpt.txt"
grep -q '^sdiqd_ckpt_artifacts [1-9]' "$WORK/ckpt.txt" || { echo "no artifact published on the server"; exit 1; }
grep -q '^sdiqd_ckpt_bytes_shipped_total [1-9]' "$WORK/ckpt.txt" || { echo "no artifact crossed the wire"; exit 1; }

echo "== corrupt server artifacts: workers' stores emptied, each server artifact cut by a byte"
find "$WORK/ckpt1" "$WORK/ckpt2" -mindepth 1 -delete
CUT=0
for f in $(find "$WORK/ckpt" -name '*.ckpt'); do
    truncate -s -1 "$f"
    CUT=$((CUT + 1))
done
[ "$CUT" -ge 1 ] || { echo "no artifact on the server to corrupt"; exit 1; }
NEW_IQ=(-experiment sweep -sweep "iq.entries=48" -budget 60000 -seed 7 -sample on -format csv)
"$WORK/sdiq" -remote "http://$ADDR" "${NEW_IQ[@]}" -export "$WORK/remote-corrupt.csv" >/dev/null
"$WORK/sdiq" "${NEW_IQ[@]}" -export "$WORK/local-corrupt.csv" >/dev/null
diff "$WORK/remote-corrupt.csv" "$WORK/local-corrupt.csv"
curl -fs "http://$ADDR/metrics" >"$WORK/metrics-corrupt.txt"
grep -E '^sdiqd_ckpt_(artifacts|evicted_total|generated_total) ' "$WORK/metrics-corrupt.txt"
awk '/^sdiqd_ckpt_evicted_total /{found = ($2 >= 1)} END {exit !found}' "$WORK/metrics-corrupt.txt" || {
    echo "no corrupt artifact was evicted ($CUT cut)"; exit 1
}

echo "== graceful worker drain (finish, upload, deregister)"
kill -TERM "$W1_PID" "$W2_PID"
for _ in $(seq 1 50); do
    kill -0 "$W1_PID" 2>/dev/null || kill -0 "$W2_PID" 2>/dev/null || break
    sleep 0.2
done
if kill -0 "$W1_PID" 2>/dev/null || kill -0 "$W2_PID" 2>/dev/null; then
    echo "a worker ignored SIGTERM"; exit 1
fi
grep -q "deregistered" "$WORK/sdiqw1.log"
grep -q "deregistered" "$WORK/sdiqw2.log"
[ "$(curl -fs "http://$ADDR/metrics" | awk '/^sdiqd_workers_connected /{print $2}')" = "0" ] || {
    echo "server still counts drained workers as connected"; exit 1
}

echo "== server drain"
kill -TERM "$SRV_PID"
for _ in $(seq 1 50); do
    kill -0 "$SRV_PID" 2>/dev/null || break
    sleep 0.2
done
if kill -0 "$SRV_PID" 2>/dev/null; then
    echo "sdiqd ignored SIGTERM"; exit 1
fi
grep -q "drained" "$WORK/sdiqd.log"

echo "== authed fleet: restart server with -auth, worker presents its token"
TENANT_TOKEN="smoke-tenant-secret"
WORKER_TOKEN="smoke-worker-secret"
cat >"$WORK/tokens.json" <<EOF
{"tokens": [
  {"token": "$TENANT_TOKEN", "principal": "smoke", "role": "tenant"},
  {"token": "$WORKER_TOKEN", "principal": "fleet", "role": "worker"}
]}
EOF
"$WORK/sdiqd" -addr "$ADDR" -cache "$WORK/cache-auth" -ckpt "$WORK/ckpt-auth" -lease-ttl 5s \
    -auth "$WORK/tokens.json" -tenant-isolation >"$WORK/sdiqd-auth.log" 2>&1 &
SRV_PID=$!
for _ in $(seq 1 50); do
    curl -fs "http://$ADDR/healthz" >/dev/null 2>&1 && break
    sleep 0.2
done
curl -fs "http://$ADDR/healthz" >/dev/null

echo "== bad-token probes must be 401 (lease poll and submit)"
CODE=$(curl -s -o /dev/null -w '%{http_code}' -X POST -H "Authorization: Bearer wrong-token" "http://$ADDR/v1/leases")
[ "$CODE" = "401" ] || { echo "bad-token lease probe got $CODE, want 401"; exit 1; }
CODE=$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$ADDR/v1/campaigns")
[ "$CODE" = "401" ] || { echo "no-token submit probe got $CODE, want 401"; exit 1; }

echo "== authed worker connects, tenant-token probe of the worker API is 403"
SDIQ_TOKEN="$WORKER_TOKEN" "$WORK/sdiqw" -server "http://$ADDR" -name smoke-auth \
    -scratch "$WORK/scratch-auth" -ckpt "$WORK/ckptw-auth" -scratch-max-bytes 1 -parallel 2 >"$WORK/sdiqw-auth.log" 2>&1 &
W1_PID=$!
for _ in $(seq 1 50); do
    N=$(curl -fs "http://$ADDR/metrics" | awk '/^sdiqd_workers_connected /{print $2}')
    [ "${N:-0}" = "1" ] && break
    sleep 0.2
done
[ "$(curl -fs "http://$ADDR/metrics" | awk '/^sdiqd_workers_connected /{print $2}')" = "1" ] || {
    echo "authed worker never connected"; cat "$WORK/sdiqw-auth.log"; exit 1
}
CODE=$(curl -s -o /dev/null -w '%{http_code}' -X POST -H "Authorization: Bearer $TENANT_TOKEN" "http://$ADDR/v1/leases")
[ "$CODE" = "403" ] || { echo "tenant-token lease probe got $CODE, want 403"; exit 1; }

echo "== authed remote sweep must be byte-identical, with remote execution"
"$WORK/sdiq" -remote "http://$ADDR" -token "$TENANT_TOKEN" "${SPEC[@]}" -export "$WORK/authed.csv" >/dev/null
diff "$WORK/authed.csv" "$WORK/local.csv"
# Snapshot metrics to a file before grepping: grep -q closing the pipe
# early would fail curl (and the script, under pipefail) spuriously.
curl -fs "http://$ADDR/metrics" >"$WORK/metrics-auth.txt"
grep -q '^sdiqd_jobs_remote_total [1-9]' "$WORK/metrics-auth.txt" || {
    echo "no job ran remotely under auth"; cat "$WORK/sdiqw-auth.log"; exit 1
}
# Under isolation the artifacts live in the tenant's namespace; the
# unlabelled rows sum every namespace.
grep -q '^sdiqd_ckpt_artifacts [1-9]' "$WORK/metrics-auth.txt" || {
    echo "no artifact counted on the isolated server"; exit 1
}

echo "== bounded worker drains holding no artifact"
kill -TERM "$W1_PID"
for _ in $(seq 1 50); do
    kill -0 "$W1_PID" 2>/dev/null || break
    sleep 0.2
done
if kill -0 "$W1_PID" 2>/dev/null; then
    echo "the authed worker ignored SIGTERM"; exit 1
fi
LEFT=$(find "$WORK/ckptw-auth" -name '*.ckpt' | wc -l)
[ "$LEFT" = "0" ] || { echo "bounded worker still holds $LEFT artifact(s)"; exit 1; }

kill -TERM "$SRV_PID"

echo "worker smoke OK"
