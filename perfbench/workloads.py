"""The benchmark's workloads as plain data.

An op is one call a user would make: ``("cli", argv)`` runs ``likeiper``'s
``cli.main(argv)``, ``("library", name)`` calls ``verify_table(name)``.
Each op has an id that keys its reference cells in
``reference/reference.json``.  Nothing here imports ``likeiper``, so the
reference generator can share these definitions.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

Op = Tuple[str, str, object]  # (op_id, kind, argv list or library table name)

COEFFS: List[Op] = [
    ("lambda_80_50", "cli", ["lambda", "--n-max", "80", "--digits", "50"]),
]

PROBE_IM = ["--line", "im", "--b", "1.0", "--t0", "0", "--t1", "30"]
PROBE_RE = ["--line", "re", "--t", "14.134725", "--b0", "0.55", "--b1", "3"]
PROBE_COMMON = ["--samples", "100", "--digits", "30"]

PROBE: List[Op] = [
    ("probe_im", "cli", ["probe"] + PROBE_IM + PROBE_COMMON),
    ("probe_re", "cli", ["probe"] + PROBE_RE + PROBE_COMMON),
]

_MID = ["--n-max", "32", "--digits", "50"]

CHECKS: List[Op] = (
    [(f"verify_{t}", "cli", ["verify", "--table", str(t), "--digits", "30"]) for t in range(1, 6)]
    + [
        ("verify_table_coeff20", "library", "coeff20"),
        ("verify_table_scan_ratios", "library", "scan_ratios"),
    ]
    + [
        (f"approx_{s.replace(':', '')}", "cli", ["approx", "--scheme", s] + _MID)
        for s in ("a1", "b", "d", "a2", "m:4")
    ]
    + [
        ("seeded_a2", "cli", ["approx", "--scheme", "a2", "--seed", "initial"] + _MID),
        ("seeded_d_c2", "cli", ["approx", "--scheme", "d", "--seed", "initial:2"] + _MID),
        ("zeros_32_50", "cli", ["zeros"] + _MID),
        ("inversion_32_50", "cli", ["zeros", "--inversion"] + _MID),
        ("scan_32_20", "cli", ["scan", "--n-max", "32", "--digits", "20"]),
        ("scan_32_80", "cli", ["scan", "--n-max", "32", "--digits", "80"]),
        ("lambda_32_100", "cli", ["lambda", "--n-max", "32", "--digits", "100"]),
    ]
)

WORKLOADS: Dict[str, List[Op]] = {"coeffs": COEFFS, "probe": PROBE, "checks": CHECKS}

#: Work units per pass and what a unit is: lambda values, probe samples, ops.
UNITS: Dict[str, Tuple[int, str]] = {
    "coeffs": (80, "lambda values"),
    "probe": (200, "probe samples"),
    "checks": (len(CHECKS), "CLI ops"),
}
