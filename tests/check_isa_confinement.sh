#!/bin/sh
# ISA-confinement check for the AVX2 backend (core/simd.hpp):
#
#   check_isa_confinement.sh OBJDUMP LIBRARY
#
# Fails when a function of LIBRARY outside an `avx2` namespace holds a
# VEX-encoded vector instruction (a `v...` mnemonic on an xmm/ymm
# register).  AVX2 code belongs only inside the XCT_SIMD_AVX2 regions: a
# header-inline function compiled there could be the copy the linker keeps
# for every caller, and a CPU without AVX would then fault on it.  Also
# fails when no function holds any, so the check cannot pass vacuously.
set -eu
"$1" -d -C "$2" | awk -F '\t' '
    /^[0-9a-f]+ <.*>:$/ { fn = $0; next }
    $3 ~ /^v[a-z0-9]+ .*%[xy]mm/ {
        avx = 1
        if (fn !~ /avx2::/ && !(fn in seen)) { seen[fn] = 1; print "AVX code outside avx2:: in " fn; bad = 1 }
    }
    END {
        if (!avx) { print "no AVX code found: is the AVX2 backend compiled in?"; exit 1 }
        exit bad
    }'
