#!/usr/bin/env python3
"""Regenerate the bundled Stieltjes-coefficient table.

Writes gamma_0..gamma_KMAX at DIGITS decimal digits, computed with mpmath's
dedicated Stieltjes routine at a boosted working precision.  Run from the
repository root:

    python scripts/generate_stieltjes.py [out_path]
"""

import sys
from pathlib import Path

import mpmath
from mpmath import mp

K_MAX = 80
DIGITS = 130
GUARD = 20


def main() -> None:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else (
        Path(__file__).resolve().parents[1]
        / "src" / "likeiper" / "data" / "stieltjes.tsv"
    )
    lines = [
        "# Stieltjes coefficients gamma_k: Laurent coefficients of zeta about s=1,",
        "#   zeta(s) = 1/(s-1) + sum_k (-1)^k gamma_k (s-1)^k / k!",
        f"# source: mpmath {mpmath.__version__} mp.stieltjes, working dps {DIGITS + GUARD}",
        f"# digits: {DIGITS}",
        f"# k_max: {K_MAX}",
    ]
    with mp.workdps(DIGITS + GUARD):
        for k in range(K_MAX + 1):
            value = mpmath.stieltjes(k)
            text = mpmath.nstr(
                value, DIGITS, strip_zeros=False, min_fixed=-mpmath.inf, max_fixed=mpmath.inf
            )
            lines.append(f"{k}\t{text}")
            print(f"gamma_{k} done", flush=True)
    out.write_text("\n".join(lines) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
