#!/usr/bin/env bash
# Crash-injection smoke of the durable control plane: start sdiqd with
# -state, attach two sdiqw workers, launch a remote sweep, SIGKILL the
# server the moment real progress has landed, restart it over the same
# state/cache directories at the same address, and require:
#   - the client (sdiq -remote, reconnecting with backoff) finishes the
#     campaign and its export is byte-identical to a local run;
#   - the restarted server recovered the campaign from its submission
#     record and re-ran it (sdiqd_campaigns_recovered_total >= 1);
#   - both workers joined the new boot with their next lease poll
#     instead of dying (sdiqd_workers_registered_total >= 2 there);
#   - work finished before the kill came back as cache hits, never
#     duplicate simulations (sdiqd_job_cache_hits_total >= 1);
#   - the state directory holds a meta.json and a snap.json per
#     campaign, and no wal.log;
#   - SIGKILLed again once the campaign has ended, with the result cache
#     moved aside, a third boot on the same state and address restores
#     the campaign from its terminal record: its CSV export equals the
#     local run's, and sdiqd_campaigns_recovered_total,
#     sdiqd_job_cache_hits_total and sdiqd_jobs_executed_total read 0.
# The exports, their diffs and the metrics land in
# ${CRASH_ARTIFACTS:-$WORK/artifacts} so CI can upload the
# recovered-vs-local evidence.
# CI runs this on every push; it needs only bash, curl and go.
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR="${SDIQD_ADDR:-127.0.0.1:8474}"
WORK="$(mktemp -d)"
ART="${CRASH_ARTIFACTS:-$WORK/artifacts}"
mkdir -p "$ART"
trap 'kill -9 "$SRV_PID" "$SRV2_PID" "$SRV3_PID" "$W1_PID" "$W2_PID" "$CLIENT_PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT
SRV_PID=""; SRV2_PID=""; SRV3_PID=""; W1_PID=""; W2_PID=""; CLIENT_PID=""

echo "== build"
go build -o "$WORK/sdiqd" ./cmd/sdiqd
go build -o "$WORK/sdiqw" ./cmd/sdiqw
go build -o "$WORK/sdiq" ./cmd/sdiq

DFLAGS=(-addr "$ADDR" -cache "$WORK/cache" -state "$WORK/state" -lease-ttl 3s)

echo "== start sdiqd on $ADDR (durable state in $WORK/state)"
"$WORK/sdiqd" "${DFLAGS[@]}" >"$ART/sdiqd-1.log" 2>&1 &
SRV_PID=$!
for _ in $(seq 1 50); do
    curl -fs "http://$ADDR/healthz" >/dev/null 2>&1 && break
    sleep 0.2
done
curl -fs "http://$ADDR/healthz" >/dev/null

echo "== start 2 sdiqw workers"
"$WORK/sdiqw" -server "http://$ADDR" -name crash-1 -scratch "$WORK/scratch1" -parallel 2 >"$ART/sdiqw1.log" 2>&1 &
W1_PID=$!
"$WORK/sdiqw" -server "http://$ADDR" -name crash-2 -scratch "$WORK/scratch2" -parallel 2 >"$ART/sdiqw2.log" 2>&1 &
W2_PID=$!
for _ in $(seq 1 50); do
    N=$(curl -fs "http://$ADDR/metrics" | awk '/^sdiqd_workers_connected /{print $2}')
    [ "${N:-0}" = "2" ] && break
    sleep 0.2
done

SPEC=(-experiment sweep -sweep "iq.entries=16,32,48,64,80,96" -budget 60000 -seed 7 -sample on -format csv)

echo "== launch remote sweep in the background"
"$WORK/sdiq" -remote "http://$ADDR" "${SPEC[@]}" -export "$ART/remote.csv" >"$ART/client.log" 2>&1 &
CLIENT_PID=$!

echo "== wait for real progress, then SIGKILL sdiqd mid-campaign"
for _ in $(seq 1 150); do
    DONEJOBS=$(curl -fs "http://$ADDR/metrics" 2>/dev/null |
        awk '/^sdiqd_jobs_executed_total |^sdiqd_jobs_remote_total /{s+=$2} END{print s+0}')
    [ "${DONEJOBS:-0}" -ge 1 ] && break
    sleep 0.2
done
[ "${DONEJOBS:-0}" -ge 1 ] || { echo "no job ever finished"; cat "$ART/sdiqd-1.log"; exit 1; }
kill -9 "$SRV_PID"
echo "   killed after $DONEJOBS finished jobs"

echo "== restart sdiqd over the same state, cache and address"
"$WORK/sdiqd" "${DFLAGS[@]}" >"$ART/sdiqd-2.log" 2>&1 &
SRV2_PID=$!
for _ in $(seq 1 50); do
    curl -fs "http://$ADDR/healthz" >/dev/null 2>&1 && break
    sleep 0.2
done
curl -fs "http://$ADDR/healthz" >/dev/null

echo "== client must ride across the restart and finish"
if ! wait "$CLIENT_PID"; then
    echo "client failed across the restart"; cat "$ART/client.log"; exit 1
fi

echo "== same sweep locally"
"$WORK/sdiq" "${SPEC[@]}" -export "$ART/local.csv" >/dev/null

echo "== recovered export must be byte-identical to the local run"
if ! diff "$ART/remote.csv" "$ART/local.csv" >"$ART/export.diff"; then
    echo "exports differ"; cat "$ART/export.diff"; exit 1
fi

# The client can finish before a worker's backoff brings its next poll
# to the new boot; the workers keep polling, so wait for both.
echo "== both workers rejoin the restarted server with their next lease poll"
for _ in $(seq 1 150); do
    N=$(curl -fs "http://$ADDR/metrics" | awk '/^sdiqd_workers_registered_total /{print $2}')
    [ "${N:-0}" -ge 2 ] 2>/dev/null && break
    sleep 0.2
done

echo "== durability metrics"
curl -fs "http://$ADDR/metrics" |
    grep -E '^sdiqd_(campaigns_recovered_total|workers_registered_total|job_cache_hits_total|jobs_executed_total|jobs_remote_total|jobs_failed_total) ' |
    tee "$ART/metrics.txt"
grep -q '^sdiqd_campaigns_recovered_total [1-9]' "$ART/metrics.txt" || { echo "campaign not recovered from durable state"; exit 1; }
grep -qE '^sdiqd_workers_registered_total ([2-9]|[1-9][0-9])' "$ART/metrics.txt" || { echo "the restarted server did not admit both workers"; exit 1; }
grep -q '^sdiqd_job_cache_hits_total [1-9]' "$ART/metrics.txt" || { echo "finished work re-simulated instead of cache-hit"; exit 1; }
grep -q '^sdiqd_jobs_failed_total 0' "$ART/metrics.txt" || { echo "jobs failed"; exit 1; }

echo "== durable state: a submission record and a terminal record per campaign, no log"
find "$WORK/state" -type f | sort | tee "$ART/state.txt"
if grep -q '/wal\.log$' "$ART/state.txt"; then echo "wal.log written"; exit 1; fi
for d in "$WORK/state/campaigns"/*/; do
    [ -f "$d/meta.json" ] && [ -f "$d/snap.json" ] || { echo "$d lacks meta.json or snap.json"; exit 1; }
done

echo "== SIGKILL the server again now that the campaign has ended, and move the result cache aside"
kill -9 "$SRV2_PID"
wait "$SRV2_PID" 2>/dev/null || true
mv "$WORK/cache" "$WORK/cache.aside"

echo "== third boot over the same state and address"
"$WORK/sdiqd" "${DFLAGS[@]}" >"$ART/sdiqd-3.log" 2>&1 &
SRV3_PID=$!
for _ in $(seq 1 50); do
    curl -fs "http://$ADDR/healthz" >/dev/null 2>&1 && break
    sleep 0.2
done
curl -fs "http://$ADDR/healthz" >/dev/null

echo "== the ended campaign comes back from its terminal record, with nothing run"
for d in "$WORK/state/campaigns"/*/; do
    ID=$(basename "$d")
    curl -fs "http://$ADDR/v1/campaigns/$ID/export?format=csv" >"$ART/restored-$ID.csv"
    if ! diff "$ART/restored-$ID.csv" "$ART/local.csv" >"$ART/restored-$ID.diff"; then
        echo "restored export of $ID differs from the local run"; cat "$ART/restored-$ID.diff"; exit 1
    fi
done
curl -fs "http://$ADDR/metrics" |
    grep -E '^sdiqd_(campaigns_recovered_total|job_cache_hits_total|jobs_executed_total) ' |
    tee "$ART/metrics-restored.txt"
for m in campaigns_recovered_total job_cache_hits_total jobs_executed_total; do
    grep -q "^sdiqd_$m 0$" "$ART/metrics-restored.txt" || { echo "sdiqd_$m is not 0 on the third boot"; exit 1; }
done

echo "== shut everything down"
kill -TERM "$W1_PID" "$W2_PID" "$SRV3_PID" 2>/dev/null || true
for _ in $(seq 1 50); do
    kill -0 "$SRV3_PID" 2>/dev/null || break
    sleep 0.2
done

echo "crash smoke OK"
