#!/usr/bin/env bash
# Autovectorization guard for the storage scan kernels and the mlp sigmoid.
#
# Compiles the `storage` and `mlp` crates to assembly and checks that the
# bodies of their `asm_probes::*` symbols (non-inlined instantiations of the
# chunked scan kernels and of the sigmoid strip pass) contain packed SIMD
# instructions.  If a refactor silently turns a kernel scalar — an indexed
# loop reintroducing bounds checks, or a branch in the sigmoid, is the
# classic cause — this fails CI before `benchmark/` has to notice the
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
# The sigmoid strip (crates/mlp/src/lib.rs) must contain all three of a
# packed divide (divpd / fdiv v*.2d) and the packed integer add and shift
# that build 2^k (paddq, psllq / add, shl v*.2d).  Its `asm_probes` symbol is
# the baseline (SSE2 / NEON) instance, which a host without AVX2 runs.
#
# On x86-64 the MLP's hot loops also have an AVX2 instance, picked at run
# time (crates/mlp/src/isa.rs).  Their own symbols are checked for 256-bit
# packed ops (a %ymm operand): vdivpd / vpaddq / vpsllq in
# `Mlp::predict_avx2` and the two epoch bodies, whose sigmoid strip must run
# four lanes wide.  A `#[target_feature]` function is never inlined into a
# baseline caller, so the symbols always exist; one that lost its
# `#[target_feature]` either disappears into its dispatcher or has no %ymm
# operand, and fails.  No instance may hold an FMA (vfmadd*): the two
# instances agree bit for bit only while every lane rounds the product and
# the sum separately.
#
# The build sets CARGO_PROFILE_RELEASE_LTO=false: under the workspace's thin
# LTO, rustc passes -C linker-plugin-lto and `--emit asm` shows pre-LTO
# (scalar, unoptimized) codegen, which would always fail the grep.

set -euo pipefail
cd "$(dirname "$0")/.."

# Prints the body of the first symbol in assembly file $1 matching $2.
probe_body() {
    awk -v s="${2}.*:\$" \
        '$0 ~ s {on=1} on {print} on && /cfi_endproc/ {on=0}' "$1"
}

# Emits crate $1's assembly and prints its path.
emit_asm() {
    CARGO_PROFILE_RELEASE_LTO=false cargo rustc --release -p "$1" -- --emit asm >/dev/null
    local asm
    asm=$(ls -t target/release/deps/"$1"-*.s | head -1)
    if [ -z "$asm" ]; then
        echo "FAIL: no assembly emitted (expected target/release/deps/$1-*.s)" >&2
        exit 1
    fi
    echo "$asm"
}

fail=0

echo "checking scan-kernel autovectorization..."
asm=$(emit_asm storage)
packed='(v?(mul|sub|add|min|max|cmp[a-z]*|movu)p[ds]|vfmadd[0-9]*pd|(fmul|fsub|fadd|fcmge|fcmle|fmin|fmax)[[:space:]]+v[0-9]+\.2d)'
for probe in rect_mask within_mask dist_sq_into mbr_of; do
    body=$(probe_body "$asm" "asm_probes.*${probe}")
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

echo "checking sigmoid autovectorization..."
asm=$(emit_asm mlp)
body=$(probe_body "$asm" "asm_probes.*sigmoid_strip")
if [ -z "$body" ]; then
    echo "FAIL: probe symbol asm_probes::sigmoid_strip not found in $asm" >&2
    fail=1
else
    for op in 'v?divpd|fdiv[[:space:]]+v[0-9]+\.2d' \
              'v?paddq|add[[:space:]]+v[0-9]+\.2d' \
              'v?psllq|shl[[:space:]]+v[0-9]+\.2d'; do
        n=$(printf '%s\n' "$body" | grep -cE "[[:space:]]($op)" || true)
        if [ "$n" -eq 0 ]; then
            echo "FAIL: mlp sigmoid_strip has no packed '$op'." >&2
            echo "      The sigmoid must stay branch-free so the strip pass" >&2
            echo "      autovectorizes.  Inspect:" >&2
            echo "      CARGO_PROFILE_RELEASE_LTO=false cargo rustc --release -p mlp -- --emit asm" >&2
            fail=1
        else
            echo "  mlp::sigmoid_strip '$op': $n instruction(s) — OK"
        fi
    done
fi

# Checks that symbol $1 of the mlp assembly is an AVX2 instance: every op in
# $2 (space-separated) with a %ymm operand, and no FMA.
check_avx2() {
    local body n op
    body=$(probe_body "$asm" "$1")
    if [ -z "$body" ]; then
        echo "FAIL: AVX2 instance $1 not found in $asm." >&2
        echo "      Was its #[target_feature(enable = \"avx2\")] removed?" >&2
        fail=1
        return
    fi
    for op in $2; do
        n=$(printf '%s\n' "$body" | grep -cE "[[:space:]]${op}[[:space:]].*%ymm" || true)
        if [ "$n" -eq 0 ]; then
            echo "FAIL: mlp::$1 has no 256-bit '$op' (no %ymm operand)." >&2
            echo "      The AVX2 instance must run four lanes wide.  Inspect:" >&2
            echo "      CARGO_PROFILE_RELEASE_LTO=false cargo rustc --release -p mlp -- --emit asm" >&2
            fail=1
        else
            echo "  mlp::$1 '$op': $n 256-bit instruction(s) — OK"
        fi
    done
    if printf '%s\n' "$body" | grep -qE '[[:space:]]vfn?m(add|sub)[0-9]*[ps][ds]'; then
        echo "FAIL: mlp::$1 contains an FMA; the instances must agree bit for bit." >&2
        fail=1
    fi
}

if [ "$(uname -m)" = x86_64 ]; then
    echo "checking the AVX2 instances..."
    for f in predict_avx2 lead_epoch_avx2 follow_epoch_avx2; do
        check_avx2 "$f" 'vdivpd vpaddq vpsllq'
    done
fi

if [ "$fail" -ne 0 ]; then
    exit 1
fi
echo "autovectorization check passed"
