#!/usr/bin/env bash
# Autovectorization guard for the storage scan kernels.
#
# Compiles the `storage` crate to assembly and checks that the bodies of the
# `kernels::asm_probes::*` symbols (non-inlined instantiations of the chunked
# scan kernels) contain packed SIMD instructions.  If a refactor silently
# turns the kernels scalar — an indexed loop reintroducing bounds checks is
# the classic cause — this fails CI before `benchmark/` has to notice the
# throughput drop.
#
# Expected instruction families (see crates/storage/src/kernels.rs):
#   x86-64 SSE2 baseline: mulpd / subpd / addpd (batch squared distances),
#                         cmplepd / cmpnlepd (batch rect + radius compares),
#                         minpd / maxpd (MBR folds), movupd/movapd (lane IO)
#   x86-64 AVX:           the same, v-prefixed (vmulpd, vcmppd, ...), plus
#                         vfmadd*pd if FMA contraction is ever enabled
#   aarch64 NEON:         fmul/fsub/fadd v*.2d, fcmge/fcmle v*.2d,
#                         fmin/fmax v*.2d
#
# The build sets CARGO_PROFILE_RELEASE_LTO=false: under the workspace's thin
# LTO, rustc passes -C linker-plugin-lto and `--emit asm` shows pre-LTO
# (scalar, unoptimized) codegen, which would always fail the grep.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "checking scan-kernel autovectorization..."
CARGO_PROFILE_RELEASE_LTO=false cargo rustc --release -p storage -- --emit asm >/dev/null

asm=$(ls -t target/release/deps/storage-*.s | head -1)
if [ -z "$asm" ]; then
    echo "FAIL: no assembly emitted (expected target/release/deps/storage-*.s)" >&2
    exit 1
fi

packed='(v?(mul|sub|add|min|max|cmp[a-z]*|movu)p[ds]|vfmadd[0-9]*pd|(fmul|fsub|fadd|fcmge|fcmle|fmin|fmax)[[:space:]]+v[0-9]+\.2d)'

fail=0
for probe in rect_mask within_mask dist_sq_into mbr_of; do
    body=$(awk -v s="asm_probes.*${probe}.*:\$" \
        '$0 ~ s {on=1} on {print} on && /cfi_endproc/ {on=0}' "$asm")
    if [ -z "$body" ]; then
        echo "FAIL: kernel probe symbol asm_probes::${probe} not found in $asm" >&2
        fail=1
        continue
    fi
    n=$(printf '%s\n' "$body" | grep -cE "$packed" || true)
    if [ "$n" -eq 0 ]; then
        echo "FAIL: kernels::${probe} compiled to scalar code (no packed SIMD ops)." >&2
        echo "      The SoA scan kernels must autovectorize; a bounds check or" >&2
        echo "      early exit in the loop body usually causes this.  Inspect:" >&2
        echo "      CARGO_PROFILE_RELEASE_LTO=false cargo rustc --release -p storage -- --emit asm" >&2
        fail=1
    else
        echo "  kernels::${probe}: $n packed SIMD instruction(s) — OK"
    fi
done

if [ "$fail" -ne 0 ]; then
    exit 1
fi
echo "autovectorization check passed"
