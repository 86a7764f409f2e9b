"""The bilinear advection operator, its brute-force oracle, and estimate harnesses.

B(u, v) projects (u . grad) v back onto the divergence-free basis.  The
pseudo-spectral path multiplies the grid states of u and v on the smallest
grid that leaves no aliased product inside the retained band
|k|_inf <= band (the aliasing count behind the 2/3 rule), so on that band
the result is the exact Galerkin convolution, which is what restores the
trilinear antisymmetry the energy arguments need.  The oracle computes the
same convolution as a literal double sum over mode pairs.

The inequality constants of the estimate chain are never known numbers;
the harnesses here measure them over seeded random ensembles and report
max/mean ratios per resolution.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .admissible import derive_exponents
from .besov import as_fraction, besov_value, lp_norm
from .errors import OracleCapExceeded, ResolutionMismatch
from .fields import (
    TWO_PI,
    GridState,
    SpectralField,
    _band_mask,
    _lattice,
    _leray_project,
    canonical_shape,
    gamma_for_regularity,
    random_field,
)


def dealias_band(n: int) -> int:
    """Retained band |k|_inf <= N/3 for quadratic products at resolution N."""
    return n // 3


def product_grid(s_u: int, s_v: int, band: int) -> int:
    """Smallest even grid m on which B(u, v) is exact on |k|_inf <= band.

    With |k|_inf supports s_u and s_v the product has support s_u + s_v, and
    an alias k + m j of it reaches the band only if m <= s_u + s_v + band.
    m > 2 max(s_u, s_v) keeps both inputs off the Nyquist line.
    """
    m = max(s_u + s_v + band + 1, 2 * max(s_u, s_v) + 1)
    return m + m % 2


def grid_states(fields, band: int) -> tuple:
    """Grid states of fields on one grid, exact for every product among them."""
    s = max(f.max_mode_inf for f in fields)
    m = product_grid(s, s, band)
    return tuple(f.grid_state(m) for f in fields)


def bilinear_b(u: SpectralField | GridState, v: SpectralField | GridState,
               band: int | None = None) -> SpectralField:
    """B(u, v) = P[(u . grad) v], dealiased to |k|_inf <= band.

    u and v are fields or prebuilt grid states.  Fields are put on the grid
    of product_grid (one state when u is v); prebuilt states set the grid,
    which must be exact for both supports.
    """
    if u.n != v.n:
        raise ResolutionMismatch(f"resolutions differ: {u.n} vs {v.n}")
    n = u.n
    band = dealias_band(n) if band is None else band
    need = product_grid(u.max_mode_inf, v.max_mode_inf, band)
    m = next((x.m for x in (u, v) if isinstance(x, GridState)), need)
    gu = u if isinstance(u, GridState) else u.grid_state(m)
    gv = gu if v is u else v if isinstance(v, GridState) else v.grid_state(m)
    if gv.m != m or m < need:
        raise ResolutionMismatch(f"grid states on {gu.m} and {gv.m}; the product needs {need}")
    uu, vv = gu.values, gv.values
    w = uu[0] * vv[2::2] + uu[1] * vv[3::2]
    spec = np.fft.rfft2(w, norm="forward")
    return SpectralField(n, np.where(_band_mask(n, band), _leray_project(spec, n), 0.0))


ORACLE_CAP = 16  # largest resolution the O(N^4) oracle accepts


def bilinear_b_oracle(u: SpectralField, v: SpectralField,
                      band: int | None = None) -> SpectralField:
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
    band = dealias_band(n) if band is None else band
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


def trilinear(u: SpectralField, v: SpectralField, w: SpectralField,
              band: int | None = None) -> float:
    """<B(u, v), w> via the spectral inner product (real by reality)."""
    return bilinear_b(u, v, band=band).inner(w)


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


def verify_energy_lemma(x: SpectralField, y: SpectralField, eps: float,
                        p_t, q_t) -> EstimateReport:
    """Pointwise-in-time energy lemma check for one pair (x, y).

    Measures |<B(x), y>| against eps ||x||^2_{H1} + c ||x||^2_{L2} ||y||^q~ in
    the space B^{2/p~+2/q~-1}_{p~,q~}, and reports the implied constant c.
    """
    p_t, q_t = as_fraction(p_t), as_fraction(q_t)
    _energy_lemma_hypotheses(p_t, q_t)
    sigma = Fraction(2) / p_t + Fraction(2) / q_t - 1
    lhs = abs(trilinear(x, x, y))
    visc = float(eps) * x.h_norm(1.0) ** 2
    y_norm = besov_value(y, sigma, p_t, q_t)
    carrier = x.l2_norm() ** 2 * y_norm ** float(q_t)
    c_implied = max(0.0, lhs - visc) / carrier if carrier > 0 else 0.0
    rhs = visc + carrier
    return EstimateReport(
        inequality="energy-lemma",
        params={"p~": str(p_t), "q~": str(q_t), "eps": float(eps)},
        lhs=lhs,
        rhs=rhs,
        ratio=lhs / rhs if rhs > 0 else 0.0,
        max_ratio=lhs / rhs if rhs > 0 else 0.0,
        mean_ratio=lhs / rhs if rhs > 0 else 0.0,
        count=1,
        seed=-1,
        extra={"c_implied": c_implied, "y_norm": y_norm},
    )


def energy_lemma_ensemble(eps: float, p_t, q_t, ensemble: EnsembleSpec) -> EstimateReport:
    """Max implied energy-lemma constant over a random ensemble, per resolution.

    The lemma owes one constant for all data, so each sampled pair is probed
    along its whole y-scale ray: with T = |<B(x), y>|, V = eps ||x||^2_{H1},
    the implied constant at scale L is (L T - V) / (||x||^2 (L ||y||)^q~),
    and the sweep captures its maximizer.  x is drawn with power-law
    exponent 2.5 and y with 2.0.
    """
    p_t, q_t = as_fraction(p_t), as_fraction(q_t)
    _energy_lemma_hypotheses(p_t, q_t)
    sigma = Fraction(2) / p_t + Fraction(2) / q_t - 1
    qf = float(q_t)
    gamma_x, gamma_y = 2.5, 2.0
    scales = 2.0 ** np.arange(-4, 13)
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
            c_best = max(
                max(0.0, sc * t_pair - visc) / (x_l2_sq * (sc * y_norm) ** qf) for sc in scales
            )
            cs.append(c_best)
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


@dataclass(frozen=True)
class LinkCheck:
    name: str
    lhs: float
    rhs: float
    exact: bool  # the inequality holds with constant 1 and is asserted

    @property
    def ratio(self) -> float:
        return self.lhs / self.rhs if self.rhs > 0 else 0.0


@dataclass(frozen=True)
class ChainReport:
    links: tuple

    def link(self, name: str) -> LinkCheck:
        for l in self.links:
            if l.name == name:
                return l
        raise KeyError(name)

    def to_json(self) -> str:
        return json.dumps(
            [{"name": l.name, "lhs": l.lhs, "rhs": l.rhs, "ratio": l.ratio, "exact": l.exact}
             for l in self.links]
        )


def verify_classical_trilinear(x: SpectralField, y: SpectralField) -> ChainReport:
    """Each link of the classical trilinear-chain bound on <B(x), y>.

    The Hoelder link and the mode-space interpolation link hold with
    constant 1 (asserted in tests); the embedding links are empirical.
    The Young link splits off eps ||grad x||^2 with eps = 1/2.
    """
    m4 = 4 * x.n  # |x|^4 is a trig polynomial; oversample so its quadrature is exact
    lhs = abs(trilinear(x, x, y))
    x_l4 = lp_norm(x.to_grid(m4), 4)
    y_l4 = lp_norm(y.to_grid(m4), 4)
    grad_l2 = x.h_norm(1.0)
    holder = LinkCheck("holder", lhs, x_l4 * grad_l2 * y_l4, exact=True)
    x_h_half = x.h_norm(0.5)
    sobolev = LinkCheck("sobolev", x_l4, x_h_half, exact=False)
    interp = LinkCheck("interpolation", x_h_half**2, x.h_norm(0.0) * x.h_norm(1.0), exact=True)
    y_h_half = y.h_norm(0.5)
    young_rhs = 0.5 * grad_l2**2 + x.h_norm(0.0) ** 2 * y_h_half**4
    young = LinkCheck("young", lhs, young_rhs, exact=False)
    return ChainReport((holder, sobolev, interp, young))
