"""The bilinear advection operator, its brute-force oracle, and estimate harnesses.

B(u, v) projects (u . grad) v = div(u (x) v) back onto the divergence-free
basis.  The pseudo-spectral path multiplies velocity samples on a grid that
leaves no aliased product inside the retained band |k|_inf <= N/3 (the
aliasing count behind the 2/3 rule); band and grid both follow from N.  On
that band the result is the exact Galerkin convolution, which is what
restores the trilinear antisymmetry the energy arguments need.  The oracle computes the same
convolution as a literal double sum over mode pairs.

The inequality constants of the estimate chain are never known numbers;
the harnesses here measure them over seeded random ensembles and report
max/mean ratios per resolution.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .admissible import derive_exponents
from .besov import as_fraction, besov_value
from .errors import OracleCapExceeded, ResolutionMismatch
from .fields import (
    TWO_PI,
    SpectralField,
    _band_mask,
    _lattice,
    _plan,
    canonical_shape,
    gamma_for_regularity,
    grid_stack,
    random_field,
)


def dealias_band(n: int) -> int:
    """Retained band |k|_inf <= N/3 for quadratic products at resolution N."""
    return n // 3


@lru_cache(maxsize=None)
def product_grid(n: int, s: int) -> int:
    """Smallest grid m = 2^a 3^b (a >= 1) on which B(u, v) is exact on the band of n.

    s, the larger |k|_inf support of u and v, counts as at least the band,
    so every band-limited field uses product_grid(n, band).  The products
    u_i v_j have support 2s, and an alias k + m j of them reaches the band
    only if m <= 2s + band; so m > 2s and, being even, m >= n.  On 2^a 3^b
    grids alone the real FFT maps a row constant along an axis to exact
    zeros, so shear flows stay steady.
    """
    band = dealias_band(n)
    bound = 2 * max(s, band) + band + 1
    powers = range(bound.bit_length() + 1)
    return min(m for m in (2**a * 3**b for a in powers[1:] for b in powers) if m >= bound)


@lru_cache(maxsize=None)
def _projection(n: int, m: int):
    """Weights taking the m x m half spectra of the three products to B on the band.

    Returns (keep, gather, gsign, weights): keep lists the flat canonical
    slots with |k|_inf <= dealias_band(n), gather and gsign are the plan's
    Leray gather on those slots, and weights the (3, len(keep)) factors
    (2 pi i / |k|) (k1 k2, k1^2, -k2^2) of u2 v2 - u1 v1, u1 v2 and u2 v1.
    """
    k1, k2, canon, _, kabs, _, _ = _lattice(n)
    keep = np.flatnonzero(canon & _band_mask(n, dealias_band(n)))
    a1, a2, ak = k1.ravel()[keep], k2.ravel()[keep], kabs.ravel()[keep]
    plan = _plan(n, m)
    gather, gsign = plan.gather[keep], plan.gsign[keep]
    weights = (1j * TWO_PI / ak) * np.stack([a1 * a2, a1 * a1, -a2 * a2])
    for arr in (keep, gather, gsign, weights):
        arr.setflags(write=False)
    return keep, gather, gsign, weights


def _products(stack: np.ndarray, terms, s: int) -> np.ndarray:
    """The (T, n/2 + 1, n + 1) sums of B over each term's (i, j) pairs of rows of stack.

    Every row of the (C, n/2 + 1, n + 1) coefficient stack has |k|_inf
    support at most s.  One scatter and one irfft2 (fields.grid_stack) put
    the rows on product_grid(n, s).  Since div u = 0, (u . grad) v =
    div(u (x) v), and the e_k coefficient of B(u, v) is

        (2 pi i / |k|) [k1 k2 (u2 v2 - u1 v1)^ + k1^2 (u1 v2)^ - k2^2 (u2 v1)^]_k,

    so a product needs only velocity samples.  Each term adds its pairs'
    three products in order, and one rfft2 takes every term's three planes
    to the band.
    """
    n = 2 * (stack.shape[-2] - 1)
    m = product_grid(n, s)
    grids = grid_stack(stack, m, s)
    prods = np.zeros((len(terms), 3, m, m))
    for planes, term in zip(prods, terms):
        for i, j in term:
            (u1, u2), (v1, v2) = grids[i], grids[j]
            planes[0] += u2 * v2 - u1 * v1
            planes[1] += u1 * v2
            planes[2] += u2 * v1
    spec = np.fft.rfft2(prods, norm="forward").reshape(len(terms), 3, -1)
    keep, gather, gsign, weights = _projection(n, m)
    w = spec[..., gather]
    w.imag *= gsign
    values = (w * weights).sum(axis=-2)
    out = np.zeros((len(terms), (n // 2 + 1) * (n + 1)), dtype=np.complex128)
    out[:, keep] = values
    return out.reshape(len(terms), *canonical_shape(n))


def bilinear_terms(stack: np.ndarray, terms) -> np.ndarray:
    """B summed over each term's (i, j) pairs of rows of a band-limited coefficient stack.

    stack is a (C, n/2 + 1, n + 1) array of fields confined to |k|_inf <=
    dealias_band(n); the result is the (T, n/2 + 1, n + 1) stack of one sum
    per term, all on product_grid(n, band).  Each sum equals the one-field
    products of bilinear_b bit for bit.
    """
    n = 2 * (stack.shape[-2] - 1)
    return _products(stack, terms, dealias_band(n))


def bilinear_b(u: SpectralField, v: SpectralField) -> SpectralField:
    """B(u, v) = P[(u . grad) v], dealiased to |k|_inf <= dealias_band(n).

    u, or u and v stacked, go to the product_grid of their larger support
    along the path of bilinear_terms.
    """
    if u.n != v.n:
        raise ResolutionMismatch(f"resolutions differ: {sorted((u.n, v.n))}")
    stack = np.stack([u.c] if v is u else [u.c, v.c])
    s = max(u.max_mode_inf, v.max_mode_inf)
    return SpectralField._view(u.n, _products(stack, [[(0, len(stack) - 1)]], s)[0])


ORACLE_CAP = 16  # largest resolution the O(N^4) oracle accepts


def bilinear_b_oracle(u: SpectralField, v: SpectralField) -> SpectralField:
    """Brute-force convolution: sum over all mode pairs j + k = m.

    Per output mode m the e-basis coefficient is

        b_m = (i / 2 pi) sum_{j+k=m} u_j v_k (j_perp . k)(k . m) / (|j| |k| |m|),

    Leray projection included, truncated to the same band as bilinear_b.
    Refuses resolutions above ORACLE_CAP.
    """
    if u.n != v.n:
        raise ResolutionMismatch(f"resolutions differ: {u.n} vs {v.n}")
    n = u.n
    if n > ORACLE_CAP:
        raise OracleCapExceeded(f"oracle capped at resolution {ORACLE_CAP}, got {n}")
    band = dealias_band(n)
    half = n // 2

    def full_modes(f):
        k1a, k2a, canon, _, _, _, _ = _lattice(n)
        ks = np.concatenate([np.stack([k1a[canon], k2a[canon]], axis=1),
                             np.stack([-k1a[canon], -k2a[canon]], axis=1)])
        cs = np.concatenate([f.c[canon], -np.conj(f.c[canon])])
        return ks, cs

    ku, cu = full_modes(u)
    kv, cv = full_modes(v)
    j1 = ku[:, 0][:, None]
    j2 = ku[:, 1][:, None]
    k1 = kv[:, 0][None, :]
    k2 = kv[:, 1][None, :]
    m1 = j1 + k1
    m2 = j2 + k2
    cross = -j2 * k1 + j1 * k2          # j_perp . k
    kdotm = k1 * m1 + k2 * m2
    mm = m1 * m1 + m2 * m2
    keep = (mm > 0) & (np.maximum(np.abs(m1), np.abs(m2)) <= band)
    # canonical half only; the partner is implied by reality
    keep &= (m1 > 0) | ((m1 == 0) & (m2 > 0))
    norm = (np.hypot(j1, j2) * np.hypot(k1, k2) * np.sqrt(np.where(keep, mm, 1)))
    vals = (1j / TWO_PI) * cu[:, None] * cv[None, :] * cross * kdotm / norm
    out = np.zeros(canonical_shape(n), dtype=np.complex128)
    np.add.at(out, (m1[keep], m2[keep] + half), vals[keep])
    return SpectralField(n, out)


def trilinear(u: SpectralField, v: SpectralField, w: SpectralField) -> float:
    """<B(u, v), w> via the spectral inner product (real by reality)."""
    return bilinear_b(u, v).inner(w)


# -- estimate harnesses -----------------------------------------------------------


@dataclass(frozen=True)
class EnsembleSpec:
    """Seeded random ensemble: count fields per resolution, unit amplitude."""

    count: int
    seed: int
    resolutions: tuple

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"ensemble count must be >= 1, got {self.count}")
        if not self.resolutions:
            raise ValueError("ensemble resolutions must not be empty")


@dataclass(frozen=True)
class EstimateReport:
    """Measured inequality: lhs against the constant-free right-hand side."""

    inequality: str
    params: dict
    lhs: float
    rhs: float
    ratio: float
    max_ratio: float
    mean_ratio: float
    count: int
    seed: int
    per_resolution: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "inequality": self.inequality,
            "params": self.params,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "ratio": self.ratio,
            "max_ratio": self.max_ratio,
            "mean_ratio": self.mean_ratio,
            "count": self.count,
            "seed": self.seed,
            "per_resolution": self.per_resolution,
            "extra": self.extra,
        }
        return json.dumps(payload, sort_keys=True)

    def csv_row(self) -> str:
        return ",".join(
            [self.inequality, f"{self.lhs:.17g}", f"{self.rhs:.17g}", f"{self.ratio:.17g}",
             f"{self.max_ratio:.17g}", f"{self.mean_ratio:.17g}", str(self.count), str(self.seed)]
        )


def verify_estimate_chain(params, ensemble: EnsembleSpec) -> EstimateReport:
    """Measure ||B(u)||_{B^{-s}_{p,q}} against the interpolated two-norm product.

    The right-hand side (without constant) is
    ||u||^(2-a-b)_{B^{-s+2-2/r}_{p,r}} * ||u||^(a+b)_{B^{-s+2}_{p,q}} with the
    derived interpolation exponents a = alpha, b = beta.  Zero fields are
    excluded from the ratio statistics.
    """
    exps = derive_exponents(params)  # raises InadmissibleParams on a failed gate
    alpha, beta = float(exps.alpha), float(exps.beta)
    assert 0 < alpha and 0 < beta and alpha + beta < 1
    s, p, q, r = params.s, params.p, params.q, params.r
    gamma = gamma_for_regularity(float(params.initial_regularity))
    per_res = {}
    best = None
    all_ratios = []
    for n in ensemble.resolutions:
        ratios = []
        for i in range(ensemble.count):
            u = random_field(n, gamma, ensemble.seed + i, band=dealias_band(n))
            if u.is_zero():
                continue
            lhs = besov_value(bilinear_b(u, u), -s, p, q)
            low = besov_value(u, params.initial_regularity, p, r)
            high = besov_value(u, -s + 2, p, q)
            rhs = low ** (2.0 - alpha - beta) * high ** (alpha + beta)
            if rhs <= 0.0:
                continue
            ratio = lhs / rhs
            ratios.append(ratio)
            if best is None or ratio > best[0]:
                best = (ratio, lhs, rhs)
        per_res[int(n)] = {"max": float(np.max(ratios)), "mean": float(np.mean(ratios))}
        all_ratios.extend(ratios)
    ratio, lhs, rhs = best
    return EstimateReport(
        inequality="product-estimate",
        params=params.as_dict(),
        lhs=lhs,
        rhs=rhs,
        ratio=ratio,
        max_ratio=float(np.max(all_ratios)),
        mean_ratio=float(np.mean(all_ratios)),
        count=ensemble.count,
        seed=ensemble.seed,
        per_resolution=per_res,
        extra={"alpha": str(exps.alpha), "beta": str(exps.beta), "gamma": gamma},
    )


def _energy_lemma_hypotheses(p_t: Fraction, q_t: Fraction) -> None:
    if not p_t >= 2:
        raise ValueError(f"hypothesis violated: p~ >= 2 (got p~ = {p_t})")
    if not q_t > 2:
        raise ValueError(f"hypothesis violated: q~ > 2 (got q~ = {q_t})")
    if not Fraction(2) / p_t + Fraction(2) / q_t - 1 > 0:
        raise ValueError(
            f"hypothesis violated: 2/p~ + 2/q~ - 1 > 0 (got {Fraction(2)/p_t + Fraction(2)/q_t - 1})"
        )


def energy_lemma_ensemble(eps: float, p_t, q_t, ensemble: EnsembleSpec) -> EstimateReport:
    """Max implied energy-lemma constant over a random ensemble, per resolution.

    The lemma owes one constant for all data, so each sampled pair is probed
    along its whole y-scale ray: with T = |<B(x), y>|, V = eps ||x||^2_{H1},
    the implied constant at scale L is (L T - V) / (||x||^2 (L ||y||)^q~).
    Its supremum over L > 0, reached at L* = q~ V / ((q~ - 1) T), is

        ((q~ - 1)^(q~ - 1) / q~^q~) T^q~ / (V^(q~ - 1) ||x||^2 ||y||^q~).

    x is drawn with power-law exponent 2.5 and y with 2.0.
    """
    p_t, q_t = as_fraction(p_t), as_fraction(q_t)
    _energy_lemma_hypotheses(p_t, q_t)
    sigma = Fraction(2) / p_t + Fraction(2) / q_t - 1
    qf = float(q_t)
    peak = (qf - 1.0) ** (qf - 1.0) / qf**qf
    gamma_x, gamma_y = 2.5, 2.0
    per_res = {}
    all_cs = []
    for n in ensemble.resolutions:
        cs = []
        for i in range(ensemble.count):
            x = random_field(n, gamma_x, ensemble.seed + 2 * i, band=dealias_band(n))
            y = random_field(n, gamma_y, ensemble.seed + 2 * i + 1, band=dealias_band(n))
            t_pair = abs(trilinear(x, x, y))
            visc = float(eps) * x.h_norm(1.0) ** 2
            x_l2_sq = x.l2_norm() ** 2
            y_norm = besov_value(y, sigma, p_t, q_t)
            if x_l2_sq <= 0 or y_norm <= 0:
                continue
            cs.append(peak * t_pair**qf / (visc ** (qf - 1.0) * x_l2_sq * y_norm**qf))
        per_res[int(n)] = {"max": float(np.max(cs)), "mean": float(np.mean(cs))}
        all_cs.extend(cs)
    return EstimateReport(
        inequality="energy-lemma",
        params={"p~": str(p_t), "q~": str(q_t), "eps": float(eps)},
        lhs=float(np.max(all_cs)),
        rhs=1.0,
        ratio=float(np.max(all_cs)),
        max_ratio=float(np.max(all_cs)),
        mean_ratio=float(np.mean(all_cs)),
        count=ensemble.count,
        seed=ensemble.seed,
        per_resolution=per_res,
        extra={"gamma_x": gamma_x, "gamma_y": gamma_y},
    )
