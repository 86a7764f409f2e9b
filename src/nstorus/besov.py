"""Sobolev and Besov norms of truncated fields via dyadic frequency blocks.

Norms are computed on truncated spectral approximations: an L_p norm is a
trapezoidal sum over the quadrature grid, a Besov norm is an l^q sum of
weighted block L_p norms over the dyadic decomposition.  Besov and Sobolev
norms of a resolution-N field always use the grid m = 2N.  A field's block
L_p norms are computed once per (field, p) and kept on the field, so every
(s, q) at that p reuses them: the blocks its support reaches go to the grid
together, in one batched irfft2, and the blocks beyond it are exactly zero
with no transform.  All parameter
arithmetic (s, p, q, r and embedding conditions) is exact rational; only
norm values are floating point.

Dyadic convention: block m > 0 holds the modes with 2^m < |k| <= 2^(m+1);
block 0 is widened to 0 < |k| <= 2 so that |k| = 1 is covered and the
blocks partition every active mode.  Every NormReport records this.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .fields import SpectralField, _lattice

BLOCK0_CONVENTION = "0<|k|<=2"


def as_fraction(x) -> Fraction:
    """Exact conversion; strings must be integers or 'a/b' (floats rejected)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        if "." in x or "e" in x.lower():
            raise ValueError(f"rational parameter required, got {x!r} (write it as a/b)")
        return Fraction(x)
    raise ValueError(f"rational parameter required, got {type(x).__name__} {x!r}")


@dataclass(frozen=True)
class BesovParams:
    """The exponent tuple (s, p, q, r), exact rationals with 1 < p, q, r."""

    s: Fraction
    p: Fraction
    q: Fraction
    r: Fraction

    def __post_init__(self):
        for name in ("s", "p", "q", "r"):
            object.__setattr__(self, name, as_fraction(getattr(self, name)))
        for name in ("p", "q", "r"):
            if getattr(self, name) <= 1:
                raise ValueError(f"{name} must satisfy 1 < {name} < oo, got {getattr(self, name)}")

    @property
    def initial_regularity(self) -> Fraction:
        """Regularity index -s + 2 - 2/r of the admissible initial data space."""
        return -self.s + 2 - Fraction(2) / self.r

    def as_dict(self) -> dict:
        return {k: str(getattr(self, k)) for k in ("s", "p", "q", "r")}


def index_float(x) -> float:
    """Float value of a norm index given as Fraction, rational string or number."""
    if isinstance(x, (str, Fraction)):
        return float(as_fraction(x))
    return float(x)


@lru_cache(maxsize=None)
def _block_lows(n: int) -> tuple[int, ...]:
    """Lower |k|^2 bound of each dyadic block: block b holds lo_b < |k|^2 <= 4^(b+1)."""
    _, _, canon, kk, _, _, _ = _lattice(n)
    kk_max = int(kk[canon].max())
    lows = [0]
    while 4 ** len(lows) < kk_max:
        lows.append(4 ** len(lows))
    return tuple(lows)


@lru_cache(maxsize=None)
def _block_masks(n: int) -> np.ndarray:
    """Boolean masks on the canonical layout, one per dyadic block, stacked."""
    _, _, canon, kk, _, _, _ = _lattice(n)
    masks = np.stack([canon & (kk > lo) & (kk <= 4 ** (b + 1))
                      for b, lo in enumerate(_block_lows(n))])
    masks.setflags(write=False)
    return masks


def lp_norm(samples: np.ndarray, p) -> float:
    """L_p norm on the torus: ((2 pi / M)^2 sum |u(node)|^p)^(1/p).

    samples is the (2, M, M) velocity stack that SpectralField.to_grid
    returns; |u| is the pointwise Euclidean magnitude.
    """
    return float(_lp_norms(samples, _p_float(p)))


def _p_float(p) -> float:
    """Float value of an integrability index, which must be at least 1."""
    pf = index_float(p)
    if pf < 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
    return pf


def _lp_norms(samples: np.ndarray, pf: float) -> np.ndarray:
    """L_p norms of velocity stacks (..., 2, M, M) over their grid axes."""
    mag = np.sqrt(samples[..., 0, :, :] ** 2 + samples[..., 1, :, :] ** 2)
    cell = (2.0 * np.pi / mag.shape[-1]) ** 2
    return (cell * np.sum(mag**pf, axis=(-2, -1))) ** (1.0 / pf)


def sobolev_norm(u: SpectralField, s, p) -> float:
    """H^s_p norm: the L_p norm of the field with coefficients u_k |k|^s."""
    sf = index_float(s)
    weighted = u.scale_radial(u.radial_weights(lambda kk: kk.astype(float) ** (sf / 2.0)))
    return lp_norm(weighted.to_grid(), p)


def block_lp_norms(u: SpectralField, p) -> list[tuple[int, float]]:
    """L_p norm of each dyadic block reconstruction (independent of s, q).

    Computed once per (field, p) and kept on the immutable field, keyed by
    the float value of p, so every Besov norm of a field at one p shares one
    transform.  The blocks that the support s = |k|_inf reaches (lo_b <
    2 s^2) go to the 2n x 2n grid in one batched irfft2; every other block
    is exactly 0.0.
    """
    pf = _p_float(p)
    try:
        memo = u._block_lp
    except AttributeError:
        memo = {}
        object.__setattr__(u, "_block_lp", memo)
    if pf not in memo:
        lows = _block_lows(u.n)
        reach = 2 * u.max_mode_inf**2
        reached = sum(lo < reach for lo in lows)
        lps = [0.0] * len(lows)
        if reached:
            m = 2 * u.n
            spec = u.full_coefficient_arrays(m, _block_masks(u.n)[:reached])
            values = np.fft.irfft2(spec, s=(m, m), norm="forward")
            lps[:reached] = _lp_norms(values, pf).tolist()
        memo[pf] = tuple(lps)
    return list(enumerate(memo[pf]))


@dataclass(frozen=True)
class NormReport:
    """A computed norm with its per-block breakdown and grid provenance.

    Each index is recorded as given: exact when it was given exactly (an
    int, a rational string or a Fraction), otherwise as its float.
    """

    kind: str
    s: Fraction | float
    p: Fraction | float
    q: Fraction | float
    n: int
    m: int
    value: float
    blocks: tuple

    def to_json(self) -> str:
        payload = {
            "kind": self.kind,
            "s": str(self.s),
            "p": str(self.p),
            "q": str(self.q),
            "N": self.n,
            "M": self.m,
            "value": self.value,
            "blocks": [{"m": b, "lp": lp, "contribution": c} for (b, lp, c) in self.blocks],
            "block0_convention": BLOCK0_CONVENTION,
        }
        return json.dumps(payload, sort_keys=True)


def _recorded_index(x) -> Fraction | float:
    return as_fraction(x) if isinstance(x, (int, str, Fraction)) else float(x)


def besov_norm(u: SpectralField, s, p, q) -> NormReport:
    """B^s_{p,q} norm: (sum_m (2^(m s) ||block_m u||_{L_p})^q)^(1/q)."""
    sf = index_float(s)
    block_lp = block_lp_norms(u, p)
    return NormReport(
        kind="besov",
        s=_recorded_index(s),
        p=_recorded_index(p),
        q=_recorded_index(q),
        n=u.n,
        m=2 * u.n,
        value=besov_from_block_lp(block_lp, s, q),
        blocks=tuple((blk, lp, (2.0 ** (blk * sf)) * lp) for blk, lp in block_lp),
    )


def besov_value(u: SpectralField, s, p, q) -> float:
    """The value of besov_norm(u, s, p, q), without its report."""
    return besov_from_block_lp(block_lp_norms(u, p), s, q)


def besov_from_block_lp(block_lp: list[tuple[int, float]], s, q) -> float:
    """Combine precomputed block L_p norms into a B^s_{.,q} value (q >= 1)."""
    sf, qf = index_float(s), index_float(q)
    if qf < 1.0:
        raise ValueError(f"q must be >= 1, got {q}")
    return float(sum(((2.0 ** (blk * sf)) * lp) ** qf for blk, lp in block_lp) ** (1.0 / qf))


# -- embeddings and interpolation ------------------------------------------------


@dataclass(frozen=True)
class EmbeddingCheck:
    name: str
    lhs: Fraction
    rhs: Fraction
    holds: bool

    @property
    def binds(self) -> bool:
        return self.lhs == self.rhs or not self.holds


@dataclass(frozen=True)
class EmbeddingCertificate:
    embeds: bool
    checks: tuple

    @property
    def binding(self) -> tuple:
        return tuple(c.name for c in self.checks if c.binds)

    def to_json(self) -> str:
        return json.dumps(
            {
                "embeds": self.embeds,
                "checks": [
                    {"name": c.name, "lhs": str(c.lhs), "rhs": str(c.rhs), "holds": c.holds}
                    for c in self.checks
                ],
                "binding": list(self.binding),
            },
            sort_keys=True,
        )


def check_embedding(source, target) -> EmbeddingCertificate:
    """Sufficient condition for B^{s1}_{p1,q1} -> B^{s2}_{p2,q2} on the torus.

    Requires s1 - 2/p1 >= s2 - 2/p2 together with p1 <= p2 and q1 <= q2.
    """
    s1, p1, q1 = (as_fraction(x) for x in source)
    s2, p2, q2 = (as_fraction(x) for x in target)
    checks = (
        EmbeddingCheck("sobolev-index", s1 - Fraction(2) / p1, s2 - Fraction(2) / p2,
                       s1 - Fraction(2) / p1 >= s2 - Fraction(2) / p2),
        EmbeddingCheck("integrability", p1, p2, p1 <= p2),
        EmbeddingCheck("summability", q1, q2, q1 <= q2),
    )
    return EmbeddingCertificate(embeds=all(c.holds for c in checks), checks=checks)


@dataclass(frozen=True)
class InterpolationReport:
    defined: bool
    ratio: float | None
    s_mid: float
    norms: tuple  # (low, mid, high)


def interpolation_ratio(u: SpectralField, s0, s1, theta, p, q) -> InterpolationReport:
    """Ratio ||u||_{B^{s_theta}} / (||u||_{B^{s0}}^(1-theta) ||u||_{B^{s1}}^theta).

    For endpoints sharing (p, q) the per-block Hoelder inequality makes the
    ratio <= 1 exactly; a zero field is flagged as undefined.
    """
    th = index_float(theta)
    if not 0.0 < th < 1.0:
        raise ValueError(f"theta must lie in (0, 1), got {theta}")
    if u.is_zero():
        return InterpolationReport(False, None,
                                   (1 - th) * index_float(s0) + th * index_float(s1),
                                   (0.0, 0.0, 0.0))
    block_lp = block_lp_norms(u, p)
    s_mid = (1 - th) * index_float(s0) + th * index_float(s1)
    lo = besov_from_block_lp(block_lp, s0, q)
    hi = besov_from_block_lp(block_lp, s1, q)
    mid = besov_from_block_lp(block_lp, s_mid, q)
    return InterpolationReport(True, mid / (lo ** (1 - th) * hi**th), s_mid, (lo, mid, hi))
