#!/usr/bin/env bash
# Fused multiply-add guard. On arm64 the Go compiler may fuse x*y + z
# into one instruction (FMADDD and its kin), which rounds once instead
# of twice, so the same float expression can differ in its last bits
# from an amd64 build. Wrapping the product in an explicit float64(...)
# forbids the fusion (Go spec, "Floating-point operators").
#
# This cross-builds every main under cmd/ and examples/ for arm64 and
# fails if any function of this module contains a fused instruction,
# naming each function with the source line it came from. It needs only
# the Go toolchain: no arm64 machine.
#
#   bash scripts/arm64_fma_check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="$(mktemp -d)"
trap 'rm -rf "$OUT"' EXIT

module="$(go list -m)"
found=0
for pkg in $(go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./cmd/... ./examples/...); do
    bin="$OUT/$(basename "$pkg")"
    GOOS=linux GOARCH=arm64 go build -o "$bin" "$pkg"
    hits="$(go tool objdump "$bin" | awk -v mod="$module/" '
        /^TEXT / { sym = $2; sub(/\(SB\)$/, "", sym); next }
        $4 ~ /^FN?M(ADD|SUB)[DS]$/ && (index(sym, mod) == 1 || index(sym, "main.") == 1) {
            print "  " sym "  " $1 "  " $4
        }' | sort | uniq -c)"
    if [ -n "$hits" ]; then
        echo "$pkg: fused multiply-adds in $module code:"
        echo "$hits"
        found=1
    fi
done
if [ "$found" = 1 ]; then
    echo "wrap each product in float64(...) so the arm64 build rounds as amd64 does"
    exit 1
fi
echo "arm64 fused multiply-add check OK"
