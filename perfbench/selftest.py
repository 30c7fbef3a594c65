"""Show that each correctness checker accepts a good value and rejects a perturbed one.

    PYTHONPATH=src python3 perfbench/selftest.py

Runs in a few seconds: it needs no spectral grid.  Good values come from the
program's oracle and special functions, and from the plane heat kernel, which
solves the heat equation exactly; each is then perturbed, typically by a
factor 1 + 1e-6.  Exits 1 if a checker accepts a perturbed value or rejects a
good one.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from autoheat import oracle, special
from autoheat.hyperbolic import HPoint

import checks

PERTURB = 1.0 + 1e-6


def _plane_stencils(t: float, h: float):
    """The plane heat kernel p_t(d(z, i)) on five-point stencils at t - h, t, t + h."""
    cx = np.array([0.3, -0.2, 0.1, 0.45])
    cy = np.array([1.4, 0.9, 2.5, 1.1])
    dx = np.array([0.0, h, -h, 0.0, 0.0])
    dy = np.array([0.0, 0.0, 0.0, h, -h])
    x = cx[:, None] + dx
    y = cy[:, None] + dy
    rho = np.arccosh(1.0 + (x * x + (y - 1.0) ** 2) / (2.0 * y))
    levels = [oracle.heat_kernel_plane(s, rho.ravel()).reshape(rho.shape)
              for s in (t - h, t, t + h)]
    return levels, cy


def cases():
    """(checker, good Check, perturbed Check) triples."""
    t = 0.7
    enum = oracle.periodized_oracle(t, HPoint(0.0, 1.0), 60.0, shell_warning=False)
    arith = oracle.periodized_oracle_basepoint(t, 60.0)
    yield ("rel_close",
           checks.rel_close("enumerated vs arithmetic", enum, arith, 1e-11),
           checks.rel_close("enumerated x (1 + 1e-6)", enum * PERTURB, arith, 1e-9))

    parts = {"cusp_part": 1.234567890123e-3, "residual_part": 3.0 / math.pi,
             "eisenstein_part": 0.1779273918860}
    value = sum(parts.values())
    good = {k: float("%.12e" % v) for k, v in parts.items()} | {"value": float("%.12e" % value)}
    yield ("cli_parts", checks.cli_parts(good),
           checks.cli_parts(good | {"value": good["value"] * PERTURB}))

    vals = np.linspace(0.3, 2.0, 50)
    yield ("positive", checks.positive("positive field", vals),
           checks.positive("one value below zero", np.append(vals, -1e-12)))

    h = 2e-3
    (km, k0, kp), cy = _plane_stencils(t, h)
    bad = k0.copy()
    bad[1, 0] *= PERTURB
    yield ("heat_residual", checks.heat_residual("plane kernel", km, k0, kp, cy, h, h, 1e-4),
           checks.heat_residual("one centre x (1 + 1e-6)", km, bad, kp, cy, h, h, 1e-4))

    yield ("plane_mass",
           checks.plane_mass("plane kernel", oracle.heat_kernel_plane, t, 1e-13),
           checks.plane_mass("kernel x (1 + 1e-6)",
                             lambda s, r: oracle.heat_kernel_plane(s, r) * PERTURB, t, 1e-13))

    r, x = 9.5, np.array([0.7, 4.0, 15.0])
    k = special.bessel_k_imag(r, x)
    yield ("kbessel_vs_mpmath", checks.kbessel_vs_mpmath("bessel_k_imag", r, x, k, 1e-10),
           checks.kbessel_vs_mpmath("bessel_k_imag x (1 + 1e-6)", r, x, k * PERTURB, 1e-10))

    nan = checks.rel_close("NaN value", float("nan"), 1.0, 1e-9)
    yield ("Check.passed", checks.rel_close("equal", 1.0, 1.0, 1e-9), nan)


def main() -> int:
    wrong = 0
    for name, good, bad in cases():
        ok = good.passed and not bad.passed
        wrong += not ok
        print(f"{'ok ' if ok else 'BAD'} {name:18s} accepts {good.name!r} ({good.measured:.2e}), "
              f"rejects {bad.name!r} ({bad.measured:.2e}) at bound {bad.bound:.0e}")
    defect, tail = 3.5e-7, 3.7e-13
    budget = [checks.budget_covers(1.0 + defect, 1.0, tail, False),
              checks.budget_covers(1.0 + defect, 1.0, tail, True),
              checks.budget_covers(1.0 + defect, 1.0, 1e-6, False)]
    ok = budget == [False, True, True]
    wrong += not ok
    print(f"{'ok ' if ok else 'BAD'} {'budget_covers':18s} defect {defect:.1e} vs tail {tail:.1e}: "
          f"rejects unwarned, accepts warned or covered {budget}")
    print("all checkers behave" if not wrong else f"{wrong} checkers misbehave")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
