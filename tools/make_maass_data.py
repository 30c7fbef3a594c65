#!/usr/bin/env python3
"""Generate the packaged Maass cusp-form data file.

Implicit-automorphy solver: sample a horocycle below the fundamental domain,
expand both f(z_j) and f(pullback z_j) in the truncated Fourier-Bessel series,
and require consistency.  With a_1 = 1 fixed, the held-out first row of the
linear system is a scalar function of r whose zero is the eigenvalue; a root
find in a +-0.015 bracket around each published 6-digit seed, and in each
sign change's own step of a scan above them, recovers r to ~1e-11 and the
coefficients to ~1e-9.

Each candidate is validated before it is written by the package's own data
check, the Hecke and inversion defects of forms.BasisTable (Hecke relations
and invariance under z -> -1/z), under the bounds BasisTable.check applies.
Run from the repository root:

    python3 tools/make_maass_data.py src/autoheat/data/maass_sl2z.dat
"""

import sys
import time

import numpy as np
from scipy.optimize import brentq

sys.path.insert(0, "src")

from autoheat.forms import (  # noqa: E402
    HECKE_BOUND, INVERSION_BOUND, BasisTable, MaassFormData, Parity)
from autoheat.hyperbolic import HPoint, reduce_to_fundamental_domain  # noqa: E402
from autoheat.special import KBesselBank  # noqa: E402

# Published spectral parameters (6-7 digits suffice as seeds; parity is
# re-derived by trying both and keeping the one whose system has a root).
SEEDS = [
    (9.533695, "odd"),
    (12.173008, "odd"),
    (13.779751, "even"),
    (14.358510, "odd"),
    (16.138073, "odd"),
    (16.644259, "even"),
    (17.738563, "even"),
    (18.180918, "odd"),
    (19.423481, "even"),
    (19.484714, "odd"),
]

M = 48          # Fourier truncation
Q = 2 * M       # horocycle samples
Y0 = 0.09       # low horocycle: keeps all written modes alive in the system
N_OUT = 40      # coefficients written per form


def system_matrix(r: float, parity: Parity):
    """V[n-1, m-1] such that V a = 0 for the coefficient vector a."""
    xj = (np.arange(1, Q + 1) - 0.5) / (2.0 * Q)
    pull = [reduce_to_fundamental_domain(HPoint(float(x), Y0)) for x in xj]
    xs = np.array([p.x for p in pull])
    ys = np.array([p.y for p in pull])
    kb = KBesselBank((r,), x_min=2.0 * np.pi * Y0 * 0.9)
    tr = np.cos if parity is Parity.EVEN else np.sin
    ns = np.arange(1, M + 1)
    # kappa_m at the pullback heights and on the horocycle; past the bank's
    # range (x > fit_hi) the rescaled values are below ~1e-18 and are dropped
    args_pull = 2.0 * np.pi * np.outer(ns, ys)          # (M, Q)
    kmat = np.zeros_like(args_pull)
    live = args_pull <= kb.fit_hi[0]
    kmat[live] = kb(0, args_pull[live])
    kmat *= np.sqrt(ys)[None, :]
    kappa0 = np.sqrt(Y0) * kb(0, 2.0 * np.pi * ns * Y0)
    phase_pull = tr(2.0 * np.pi * np.outer(ns, xs))     # (M, Q)
    phase_smp = tr(2.0 * np.pi * np.outer(ns, xj))      # (M, Q)
    V = (2.0 / Q) * (kmat * phase_pull) @ phase_smp.T   # (M, M): sum over j
    V = V.T                                             # rows indexed by n
    V[np.diag_indices(M)] -= kappa0
    return V


def solve_coefficients(r: float, parity: Parity):
    """Fix a_1 = 1, solve rows 2..M, return (coeffs, held-out row-1 mismatch)."""
    V = system_matrix(r, parity)
    scale = np.max(np.abs(V), axis=1)
    scale[scale == 0.0] = 1.0
    V = V / scale[:, None]
    A = V[1:, 1:]
    rhs = -V[1:, 0]
    a_rest, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    a = np.concatenate([[1.0], a_rest])
    return a, float(V[0] @ a)


def refine(bracket: tuple[float, float], parity: Parity):
    """The root of the mismatch in the bracket (lo, hi), or None when its ends
    have one sign."""
    lo, hi = bracket
    g = lambda r: solve_coefficients(r, parity)[1]
    glo, ghi = g(lo), g(hi)
    if glo * ghi > 0.0:
        return None
    root = brentq(g, lo, hi, xtol=1e-13, rtol=8.9e-16)
    coeffs, resid = solve_coefficients(root, parity)
    return root, coeffs, abs(resid)


def scan_seeds(r_lo: float, r_hi: float, step: float = 0.01):
    """Locate eigenvalue candidates by sign changes of the consistency
    mismatch: each change's own scan step (rs[k], rs[k + 1]) is its bracket,
    so two changes one step apart are refined apart."""
    found = []
    for parity in (Parity.EVEN, Parity.ODD):
        rs = np.arange(r_lo, r_hi, step)
        gs = np.array([solve_coefficients(r, parity)[1] for r in rs])
        sign_flip = np.nonzero(gs[:-1] * gs[1:] < 0.0)[0]
        for k in sign_flip:
            found.append(((float(rs[k]), float(rs[k + 1])), parity.value))
    return sorted(found)


def main(out_path: str) -> int:
    brackets = [((r - 0.015, r + 0.015), parity) for r, parity in SEEDS]
    print("scanning (19.6, 26.5) for additional eigenvalues...")
    extra = scan_seeds(19.6, 26.5)
    print("scan candidates:", [((round(lo, 3), round(hi, 3)), p) for (lo, hi), p in extra])
    brackets.extend(extra)

    records = []
    for bracket, parity_guess in brackets:
        where = f"bracket ({bracket[0]:.3f}, {bracket[1]:.3f})"
        t0 = time.time()
        found = None
        order = [Parity(parity_guess), Parity("odd" if parity_guess == "even" else "even")]
        for parity in order:
            got = refine(bracket, parity)
            if got is not None:
                found = (parity, *got)
                break
        if found is None:
            print(f"{where}: no root for either parity, SKIPPED")
            continue
        parity, r, coeffs, resid = found
        form = MaassFormData(r=r, parity=parity, coeffs=coeffs[:N_OUT].copy())
        table = BasisTable([form], ())
        hd, inv = table.hecke[0], table.inversion[0]
        ok = hd <= HECKE_BOUND and inv <= INVERSION_BOUND
        print(f"{where} -> r={r:.13f} parity={parity.value} mism={resid:.1e} "
              f"hecke={hd:.1e} inv={inv:.1e} [{time.time()-t0:.1f}s] {'OK' if ok else 'REJECTED'}")
        if ok:
            records.append((r, parity, coeffs[:N_OUT]))

    lines = ["#maass-sl2z v1"]
    for r, parity, coeffs in records:
        lines.append(f"form r={r:.13f} parity={parity.value} n={len(coeffs)}")
        for k in range(0, len(coeffs), 5):
            lines.append(" ".join(f"{c:.13e}" for c in coeffs[k:k + 5]))
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {len(records)} forms to {out_path}")
    return 0 if records else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else "src/autoheat/data/maass_sl2z.dat"))
