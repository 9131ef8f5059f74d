#!/usr/bin/env bash
# Guards the nn kernels' runtime-dispatched SIMD clones (DESIGN.md §10):
# the "default", "avx2" and "avx512f" clone of every hot kernel must
# contain packed double-precision math.  A clone that compiles to scalar
# code still passes every bit-identity test, only slower, so this is the
# check that notices when the vectorizer turns the loops down (as GCC's
# -O2 "very-cheap" cost model does without -fvect-cost-model=dynamic).
#
# Usage: kernel_simd_check.sh <objdump> <path-to-libspear_nn>

set -uo pipefail

OBJDUMP="${1:?usage: kernel_simd_check.sh <objdump> <libspear_nn>}"
LIB="${2:?usage: kernel_simd_check.sh <objdump> <libspear_nn>}"

fail() { echo "FAIL: $*" >&2; exit 1; }

# One line per function symbol: "<symbol> <packed muls> <packed adds>".
COUNTS="$("$OBJDUMP" -d --no-show-raw-insn "$LIB" | awk '
  /^[0-9a-f]+ <.*>:$/ {
    fn = substr($2, 2, length($2) - 3); mul[fn] += 0; add[fn] += 0; next
  }
  /\tv?mulpd / { mul[fn]++ }
  /\tv?addpd / { add[fn]++ }
  END { for (f in mul) print f, mul[f], add[f] }')" ||
  fail "$OBJDUMP -d $LIB"

# kernel (mangled-name stem) and the packed ops its loops must use.
KERNELS=(
  "_ZN5spear7kernels22matmul_compressed_intoE mul add"
  "_ZN5spear7kernels11matmul_intoE mul add"
  "_ZN5spear7kernels21transpose_matmul_intoE mul add"
  "_ZN5spear7kernels8add_biasE add"
  "_ZN5spear7kernels13add_bias_reluE add"
  "_ZN5spear7kernels22column_sums_accumulateE add"
)

status=0
for entry in "${KERNELS[@]}"; do
  read -r stem ops <<<"$entry"
  for clone in default avx2 avx512f; do
    line="$(grep -E "^${stem}[^ ]*\.${clone}(\.[0-9]+)? " \
              <<<"$COUNTS")"
    if [ -z "$line" ]; then
      echo "FAIL: no ${clone} clone of ${stem}" >&2
      status=1
      continue
    fi
    read -r sym muls adds <<<"$line"
    for op in $ops; do
      count="$adds"
      [ "$op" = mul ] && count="$muls"
      if [ "$count" -eq 0 ]; then
        echo "FAIL: ${sym} has no packed ${op}pd" >&2
        status=1
      else
        echo "ok: ${sym} ${op}pd x${count}"
      fi
    done
  done
done
exit "$status"
