"""Evaluation of the spectral basis on the upper half-plane.

Three families: the constant form (handled by its single number), real
analytic Eisenstein series on the critical line, and Maass cusp forms from
ingested Fourier data.  All Bessel arithmetic runs through the exponentially
rescaled K-Bessel so that values stay O(1) even at spectral parameter r ~ 20,
where the raw K_{ir} and the normalization constants would otherwise meet as
e^{-pi r/2} times e^{+pi r/2}.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .special import FOURIER_DECAY, KBesselBank, gauss_rule, xi_line

_KBESSEL_X_MIN = 2.0  # smallest Bessel argument the banks cover
_ENTRY_BLOCK = 2 ** 16  # Bessel entries per pass of a Fourier sum: bounds its flat arrays
_NORM_Y_MAX = 10.0  # height cutoff of the L2 normalization
_NORM_PANELS = 12  # panels in log y of its Parseval rule
HECKE_BOUND = 1e-8  # largest Hecke defect of a loadable form
INVERSION_BOUND = 1e-9  # largest |u(z) - u(-1/z)| of a loadable form
_INVERSION_POINTS = np.array([0.31 + 0.87j, 0.11 + 1.02j, 0.45 + 0.92j])


class Parity(enum.Enum):
    EVEN = "even"
    ODD = "odd"


class MaassDataError(ValueError):
    """Malformed or invalid Maass data file."""

    def __init__(self, message: str, lineno: int | None = None):
        super().__init__(message if lineno is None else f"line {lineno}: {message}")


# ---------------------------------------------------------------------------
# Fourier sums
# ---------------------------------------------------------------------------

def _divisor_table(r: np.ndarray, n_max: int) -> np.ndarray:
    """Real Fourier multipliers n^{ir} sigma_{-2ir}(n) = sum_{d|n} cos(r log(n/d^2)),
    shape (len(r), n_max) for n = 1..n_max.  Each divisor pair d <= e = n/d
    adds cos(r log(e/d)), then cos(r log(d/e)) when e != d, in increasing d."""
    r = np.asarray(r, dtype=float)[:, None]
    n = np.arange(1, n_max + 1)
    out = np.zeros((len(r), n_max))
    for d in range(1, math.isqrt(n_max) + 1):
        m = n[(n % d == 0) & (n >= d * d)]
        e = m // d
        out[:, m - 1] += np.cos(r * np.log(e / d))
        pair = e != d
        out[:, m[pair] - 1] += np.cos(r * np.log(d / e[pair]))
    return out


def _bessel_table(bank: KBesselBank, rows, cut, n_max: np.ndarray, n_cols: int, heights):
    """Ktilde_{r_i}(2 pi n y) at every live (row i, n, height): n <= n_max[i]
    and 2 pi n y <= cut[i] = r_i + FOURIER_DECAY, one bank entry each; the
    table is zero where not live."""
    n_top = int(cut.max(initial=0.0) / (2.0 * math.pi * heights.min())) + 1
    ns = np.arange(1, min(n_cols, n_top) + 1)
    arg = (2.0 * math.pi * ns)[:, None] * heights
    live = (arg <= cut[:, None, None]) & (ns[:, None] <= n_max[:, None, None])
    i, k, h = np.nonzero(live)
    table = np.zeros(live.shape)
    table[live] = bank(rows[i], arg[k, h])
    return table


def _height_blocks(y: np.ndarray, per_height: float):
    """The points in height order, in blocks of at most _ENTRY_BLOCK Bessel
    entries (a point at height y has at most per_height / y): per block the
    points, their distinct heights in increasing order and each point's
    index into those."""
    if len(y) == 1:  # one block of one height
        yield slice(None), y, slice(None)
        return
    order = np.argsort(y, kind="stable")
    load = np.concatenate(([0.0], np.cumsum(per_height / y[order])))  # entries before each
    s = 0
    while s < len(y):
        e = max(s + 1, int(np.searchsorted(load, load[s] + _ENTRY_BLOCK, "right")) - 1)
        yield (order[s:e], *np.unique(y[order[s:e]], return_inverse=True))
        s = e


def _fourier_rows(bank: KBesselBank, rows, coeffs: np.ndarray, n_max: np.ndarray,
                  odd: np.ndarray, x, y) -> np.ndarray:
    """sum_n coeffs[j, n-1] Ktilde_{r_j}(2 pi n y) tr_j(2 pi n x) for each bank
    row j in rows, r_j = bank.r[j], tr_j = sin where odd[j] else cos, over
    the n with 2 pi n y <= r_j + FOURIER_DECAY; coeffs, n_max and odd are
    indexed by bank row.  ValueError where a row's n_max[j] coefficients
    stop short of that at the lowest height: the dropped terms would go
    unreported.

    Points run in height order, in blocks (_height_blocks).  A block
    evaluates the bank once per live (row, n, height), scales the table by
    the coefficients and the trigonometric factors of its points, then adds
    the terms of n = 1, 2, ... into one (row, point) array (the table is zero
    off the live entries): every (row, point) sums its terms in increasing n
    from 0.0, so no value depends on the other points of its batch."""
    rows, x, y = np.asarray(rows, dtype=np.intp), np.asarray(x, float), np.asarray(y, float)
    out = np.zeros((len(rows), len(x)))
    if not (len(x) and len(rows)):
        return out
    n_max, odd = n_max[rows], odd[rows]
    cut, y_min = bank.r[rows] + FOURIER_DECAY, float(np.min(y))
    short = 2.0 * math.pi * n_max * y_min < cut
    if short.any():
        i = int(np.argmax(short))
        raise ValueError(
            f"{n_max[i]} Fourier coefficients are too few at height y={y_min:.4f} for "
            f"r={bank.r[rows[i]]:.4f} (need 2 pi N y >= r + {FOURIER_DECAY:g}): the point "
            f"is outside the evaluator's domain")
    any_odd = odd.any()
    for idx, heights, at in _height_blocks(y, float(np.sum(cut)) / (2.0 * math.pi)):
        table = _bessel_table(bank, rows, cut, n_max, coeffs.shape[1], heights)
        table *= coeffs[rows, :table.shape[1], None]
        ang = (2.0 * math.pi * np.arange(1, table.shape[1] + 1))[:, None] * x[idx]
        # without odd rows one factor per (n, point) serves every row
        tr = np.where(odd[:, None, None], np.sin(ang), np.cos(ang)) if any_odd else np.cos(ang)
        acc = np.zeros((len(rows), ang.shape[1]))
        for k in range(table.shape[1]):
            acc += table[:, k, at] * tr[..., k, :]
        out[:, idx] = acc
    return out


# ---------------------------------------------------------------------------
# Maass cusp forms
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class MaassFormData:
    """Ingested cusp-form record, coeffs Hecke-normalized (a_1 = 1); the
    table that evaluates the form computes its L2 normalization."""

    r: float
    parity: Parity
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if not 0.0 < self.r < math.inf:
            raise ValueError(f"spectral parameter must be positive and finite, got r={self.r}")
        if not np.all(np.isfinite(self.coeffs)):
            raise ValueError(f"form r={self.r}: Fourier coefficients must be finite")
        if len(self.coeffs) < 10:
            raise ValueError("at least 10 Fourier coefficients required")
        if abs(self.coeffs[0] - 1.0) > 1e-9:
            raise ValueError(f"Hecke normalization a_1 = 1 violated: a_1 = {self.coeffs[0]}")

    @property
    def n_coeffs(self) -> int:
        return len(self.coeffs)


def maass_envelope(r: np.ndarray, y_min: float) -> np.ndarray:
    """Growth of |Ktilde_{ir}| at heights >= y_min, up to a factor common to
    all r: e^{pi r/2}, as past its turning point Ktilde_{ir} behaves like
    e^{pi r/2} K_0; 0 where 2 pi y_min > r + FOURIER_DECAY, where the
    expansion keeps no term."""
    return np.where(2.0 * math.pi * y_min > r + FOURIER_DECAY, 0.0, np.exp(0.5 * math.pi * r))


# ---------------------------------------------------------------------------
# Basis evaluation
# ---------------------------------------------------------------------------

class BasisTable:
    """The evaluator of the basis: the cusp forms, then the Eisenstein series
    E_{1/2+ir} at the nodes r, as the rows of one K-Bessel bank (the forms'
    r, then the nodes) with one coefficient table (the forms' a_n and the
    nodes' multipliers n^{ir} sigma_{-2ir}(n), zero-padded to one width).
    Values of rows of both families come from one Fourier sum, finished per
    family.  Eisenstein values are in the unitary frame: they carry the
    phase phi(1/2+ir)^{-1/2}, which makes them real.  Rows are fitted on
    first use; a fitted row never changes.

    On its own rows the table computes each form's L2 normalization `norm`
    (_norm_squares; ValueError where it degenerates), Hecke defect `hecke`
    and inversion defect `inversion`, max |u(z) - u(-1/z)| at
    _INVERSION_POINTS (off x = 0, where odd forms vanish; every height at
    least sqrt(3)/2) through the expansion as given; check() refuses a form
    over the bounds; this fits every cusp row.  `bounds_at_i` holds, per
    node and before any fit, bounds 2 |cos arg xi(1+2ir)| - F <= |E(i)| <=
    2 + F, F = (4/|xi(1+2ir)|) sum_n d(n) K_0(2 pi n): at i the constant
    term is 2 cos arg xi, |n^{ir} sigma_{-2ir}(n)| <= d(n) and |K_{ir}| <= K_0."""

    _N_MULTIPLIERS = 72  # covers every truncation the half-plane can request

    def __init__(self, forms, nodes):
        nodes = np.asarray(nodes, dtype=float).reshape(-1)
        self.n_cusp, m = len(forms), self._N_MULTIPLIERS
        xi = [xi_line(float(r)) for r in nodes]
        self._arg_xi = np.array([float(np.angle(v)) for v in xi])
        # 4/(xi(1+2ir) e^{pi r/2}): the modulus is the unitary frame's prefactor
        self._pref = np.array([4.0 / (abs(v) * math.exp(math.pi * float(r) / 2.0))
                               for v, r in zip(xi, nodes)])
        n = np.arange(1, m + 1)  # d(n), the multipliers at r = 0; K_0(x) <= sqrt(pi/2x) e^{-x}
        k0 = np.sum(_divisor_table(np.zeros(1), m)[0] * np.exp(-2.0 * math.pi * n) / np.sqrt(4 * n))
        fb = 4.0 / np.abs(np.array(xi, dtype=complex)) * k0  # F, the Fourier part's bound at i
        self.bounds_at_i = (np.maximum(2.0 * np.abs(np.cos(self._arg_xi)) - fb, 0.0), 2.0 + fb)
        self.bank = KBesselBank(np.concatenate(([f.r for f in forms], nodes)), _KBESSEL_X_MIN)
        self.coeffs = np.zeros((len(self.bank.r), max([m] + [f.n_coeffs for f in forms])))
        for j, f in enumerate(forms):
            self.coeffs[j, :f.n_coeffs] = f.coeffs
        self.coeffs[self.n_cusp:, :m] = _divisor_table(nodes, m)
        self.n_max = np.array([f.n_coeffs for f in forms] + [m] * len(nodes), dtype=int)
        self.odd = np.array([f.parity is Parity.ODD for f in forms] + [False] * len(nodes),
                            dtype=bool)
        norm_sq = _norm_squares(self)
        for form, sq in zip(forms, norm_sq):
            if not sq > 0.0:
                raise ValueError(f"degenerate L2 norm for form r={form.r}")
        self.norm = 1.0 / np.sqrt(norm_sq)
        self.hecke = np.array([_hecke_defect(f.coeffs) for f in forms])
        z = np.concatenate([_INVERSION_POINTS, -1.0 / _INVERSION_POINTS])
        vals, k = self(np.arange(self.n_cusp), z.real, z.imag), len(_INVERSION_POINTS)
        self.inversion = np.max(np.abs(vals[:, :k] - vals[:, k:]), axis=1, initial=0.0)

    def check(self) -> None:
        """MaassDataError for the first form whose Hecke or inversion defect
        exceeds HECKE_BOUND or INVERSION_BOUND."""
        for r, hecke, inv in zip(self.bank.r[:self.n_cusp], self.hecke, self.inversion):
            if not (hecke <= HECKE_BOUND and inv <= INVERSION_BOUND):
                raise MaassDataError(f"form r={float(r)} fails the data check: Hecke defect "
                                     f"{hecke:.1e} (bound {HECKE_BOUND:g}), inversion defect "
                                     f"{inv:.1e} (bound {INVERSION_BOUND:g})")

    def __call__(self, rows: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Values of the rows (increasing) at the points as given (not
        reduced), shape (len(rows), npoints): a form's row is
        norm (sqrt(y) acc), a node's the constant term
        2 sqrt(y) cos(r log y + arg xi(1+2ir)) plus pref sqrt(y) acc, where
        acc is the row's Fourier sum (_fourier_rows); ValueError at heights
        whose terms need more coefficients or multipliers than are stored."""
        acc = _fourier_rows(self.bank, rows, self.coeffs, self.n_max, self.odd, x, y)
        k = int(np.searchsorted(rows, self.n_cusp))
        cusp, node = rows[:k], rows[k:] - self.n_cusp
        sy = np.sqrt(y)
        const = 2.0 * sy * np.cos(self.bank.r[rows[k:]][:, None] * np.log(y)
                                  + self._arg_xi[node][:, None])
        return np.concatenate([self.norm[cusp][:, None] * (sy * acc[:k]),
                               const + self._pref[node][:, None] * sy * acc[k:]])


# ---------------------------------------------------------------------------
# Cusp-form data check
# ---------------------------------------------------------------------------

def _norm_squares(table: BasisTable, ny: int = 32, nphi: int = 32, nx: int = 32) -> np.ndarray:
    """int |u|^2 dx dy / y^2 below y = _NORM_Y_MAX in the fundamental domain
    (u decays like e^{-2 pi y}, so the cutoff loses nothing) of the
    unnormalized form u of each of the table's cusp rows.

    On the rectangle 1 <= y <= _NORM_Y_MAX, Parseval in x leaves
    (1/2) sum a_n^2 int Ktilde(2 pi n y)^2 dy/y: Gauss-Legendre in log y on
    _NORM_PANELS panels of ny nodes.  On the cap between the arc and y = 1,
    y = cos(phi) for phi in [0, pi/6] (nphi nodes) and x in [sin(phi), 1/2]
    (nx nodes), doubled by the evenness of |u|^2 in x: each phi node is one
    height for all its x nodes."""
    bank, rows = table.bank, np.arange(table.n_cusp)
    coeffs, n_max, odd = table.coeffs[rows], table.n_max[rows], table.odd[rows]
    half = 0.5 * math.log(_NORM_Y_MAX) / _NORM_PANELS
    log_y, w_log = gauss_rule(half * (2.0 * np.arange(_NORM_PANELS) + 1.0), half, ny)
    bessel = _bessel_table(bank, rows, bank.r[rows] + FOURIER_DECAY, n_max,
                           coeffs.shape[1], np.exp(log_y.ravel()))
    rect = 0.5 * np.sum(coeffs[:, :bessel.shape[1]] ** 2 * (bessel ** 2 @ w_log.ravel()), axis=1)
    phi, w_phi = gauss_rule(math.pi / 12.0, math.pi / 12.0, nphi)
    x, w_x = gauss_rule(0.25 + 0.5 * np.sin(phi), 0.25 - 0.5 * np.sin(phi), nx)
    # dy = sin(phi) dphi; the doubling by evenness in x
    wts = (2.0 * w_phi * np.sin(phi) / np.cos(phi) ** 2)[:, None] * w_x
    y = np.repeat(np.cos(phi), nx)
    vals = np.sqrt(y) * _fourier_rows(bank, rows, coeffs, n_max, odd, x.ravel(), y)
    return rect + (vals * vals) @ wts.ravel()


def _hecke_defect(a: np.ndarray) -> float:
    """Largest |a(m)a(n) - a(mn)| over coprime 1 < m < n with mn <= N = len(a),
    and |a(p)a(p^j) - a(p^{j-1}) - a(p^{j+1})| for p = 2, 3, 5 (a(1) = 1)."""
    n = np.arange(2, len(a) + 1)
    m, k = np.meshgrid(n, n, indexing="ij")
    pair = (m < k) & (m * k <= len(a)) & (np.gcd(m, k) == 1)
    m, k = m[pair], k[pair]
    worst = float(np.max(np.abs(a[m - 1] * a[k - 1] - a[m * k - 1]), initial=0.0))
    for p in (2, 3, 5):
        q = p ** np.arange(len(a).bit_length())
        ap = a[q[q <= len(a)] - 1]  # a(1), a(p), a(p^2), ...
        worst = max(worst, float(np.max(np.abs(ap[1] * ap[1:-1] - ap[:-2] - ap[2:]), initial=0.0)))
    return worst


def check_distinct(forms) -> None:
    """MaassDataError if two forms' spectral parameters agree within 1e-9."""
    rs = sorted(f.r for f in forms)
    for r1, r2 in zip(rs, rs[1:]):
        if abs(r1 - r2) < 1e-9:
            raise MaassDataError(f"duplicate cusp spectral parameter r = {r1}")


# ---------------------------------------------------------------------------
# Data ingestion
# ---------------------------------------------------------------------------

_HEADER = "#maass-sl2z v1"


def parse_maass_data(text: str) -> list[MaassFormData]:
    """Parse the Maass data grammar; raises MaassDataError with line numbers."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != _HEADER:
        got = lines[0].strip() if lines else "<empty file>"
        raise MaassDataError(f"expected header '{_HEADER}', got '{got}'", lineno=1)
    forms_out: list[MaassFormData] = []
    n = None  # the coefficient count of the record being read, None between records
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if n is None:
            if not line or line.startswith("#"):
                continue
            if not line.startswith("form "):
                raise MaassDataError(f"expected 'form' record, got '{line}'", lineno=lineno)
            toks = line[5:].split()
            if bad := [tok for tok in toks if "=" not in tok]:
                raise MaassDataError(f"malformed field '{bad[0]}'", lineno=lineno)
            fields = dict(tok.split("=", 1) for tok in toks)
            try:
                r, parity, n = float(fields["r"]), Parity(fields["parity"]), int(fields["n"])
            except (KeyError, ValueError) as exc:
                raise MaassDataError(f"bad form record '{line}': {exc}", lineno=lineno) from exc
            coeffs: list[float] = []
        elif not line.startswith("#"):
            for tok in line.split():
                try:
                    coeffs.append(float(tok))
                except ValueError as exc:
                    raise MaassDataError(f"bad coefficient '{tok}'", lineno=lineno) from exc
        # a record ends at its n-th coefficient, before the next record or at the end
        if len(coeffs) >= n or lineno == len(lines) or lines[lineno].strip().startswith("form "):
            if len(coeffs) != n:
                raise MaassDataError(
                    f"form r={r}: expected {n} coefficients, found {len(coeffs)}", lineno=lineno)
            try:
                forms_out.append(MaassFormData(r=r, parity=parity, coeffs=np.array(coeffs)))
            except ValueError as exc:
                raise MaassDataError(str(exc), lineno=lineno) from exc
            n = None
    return forms_out


def load_maass_data(path) -> list[MaassFormData]:
    """Parse a Maass data file; MaassDataError where it is malformed or repeats
    a spectral parameter.  BasisTable normalizes and checks the forms."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    data = parse_maass_data(text)
    check_distinct(data)
    return data
