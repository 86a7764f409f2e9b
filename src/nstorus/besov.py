"""Sobolev and Besov norms of truncated fields via dyadic frequency blocks.

Norms are computed on truncated spectral approximations: an L_p norm is a
trapezoidal sum over the quadrature grid (default m = 2N, twice the
resolution), a Besov norm is an l^q sum of weighted block L_p norms over
the dyadic decomposition.  All dyadic blocks of a field reach the grid
together, in one batched irfft2.  All parameter arithmetic (s, p, q, r and
embedding conditions) is exact rational; only norm values are floating
point.

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

from .errors import ResolutionMismatch
from .fields import GridField, SpectralField, _lattice

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
def _block_masks(n: int) -> np.ndarray:
    """Boolean masks on the canonical layout, one per dyadic block, stacked."""
    _, _, canon, kk, _, _, _ = _lattice(n)
    kk_max = int(kk[canon].max())
    bounds = []
    b = 4
    while True:
        bounds.append(b)
        if b >= kk_max:
            break
        b *= 4
    lows = [0] + bounds[:-1]
    masks = np.stack([canon & (kk > lo) & (kk <= hi) for lo, hi in zip(lows, bounds)])
    masks.setflags(write=False)
    return masks


def lp_norm(grid, p) -> float:
    """L_p norm on the torus: ((2 pi / M)^2 sum |u(node)|^p)^(1/p).

    Accepts a GridField (vector samples, pointwise Euclidean magnitude) or a
    plain scalar sample array.
    """
    if isinstance(grid, GridField):
        mag = grid.pointwise_magnitude()
    else:
        mag = np.abs(np.asarray(grid, dtype=float))
    return float(_lp_norms(mag, p))


def _lp_norms(mag: np.ndarray, p) -> np.ndarray:
    """L_p norms of magnitude samples over the last two (grid) axes."""
    pf = index_float(p)
    if pf < 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
    cell = (2.0 * np.pi / mag.shape[-1]) ** 2
    return (cell * np.sum(mag**pf, axis=(-2, -1))) ** (1.0 / pf)


def sobolev_norm(u: SpectralField, s, p, m: int | None = None) -> float:
    """H^s_p norm: the L_p norm of the field with coefficients u_k |k|^s."""
    sf = index_float(s)
    weighted = u.scale_radial(u.radial_weights(lambda kk: kk.astype(float) ** (sf / 2.0)))
    return lp_norm(weighted.to_grid(m), p)


def block_lp_norms(u: SpectralField, p, m: int | None = None) -> list[tuple[int, float]]:
    """L_p norm of each dyadic block reconstruction (independent of s, q).

    Every block reaches the m x m grid (default 2n) in one batched irfft2.
    """
    m = 2 * u.n if m is None else m
    if m < u.n:
        raise ResolutionMismatch(f"grid size {m} < resolution {u.n}")
    spec = u.full_coefficient_arrays(m, _block_masks(u.n))
    values = np.fft.irfft2(spec, s=(m, m), norm="forward")
    mag = np.sqrt(values[:, 0] ** 2 + values[:, 1] ** 2)
    return [(blk, float(lp)) for blk, lp in enumerate(_lp_norms(mag, p))]


@dataclass(frozen=True)
class NormReport:
    """A computed norm with its per-block breakdown and grid provenance."""

    kind: str
    s: Fraction | None
    p: Fraction
    q: Fraction | None
    n: int
    m: int
    value: float
    blocks: tuple = ()
    block0_convention: str = BLOCK0_CONVENTION

    def to_json(self) -> str:
        payload = {
            "kind": self.kind,
            "s": None if self.s is None else str(self.s),
            "p": str(self.p),
            "q": None if self.q is None else str(self.q),
            "N": self.n,
            "M": self.m,
            "value": self.value,
            "blocks": [{"m": b, "lp": lp, "contribution": c} for (b, lp, c) in self.blocks],
            "block0_convention": self.block0_convention,
        }
        return json.dumps(payload, sort_keys=True)


def besov_norm(u: SpectralField, s, p, q, m: int | None = None) -> NormReport:
    """B^s_{p,q} norm: (sum_m (2^(m s) ||block_m u||_{L_p})^q)^(1/q)."""
    sf, qf = index_float(s), index_float(q)
    if qf < 1.0:
        raise ValueError(f"q must be >= 1, got {q}")
    m_eff = 2 * u.n if m is None else m
    block_lp = block_lp_norms(u, p, m_eff)
    return NormReport(
        kind="besov",
        s=as_fraction(s) if isinstance(s, (int, str, Fraction)) else None,
        p=as_fraction(p) if isinstance(p, (int, str, Fraction)) else None,
        q=as_fraction(q) if isinstance(q, (int, str, Fraction)) else None,
        n=u.n,
        m=m_eff,
        value=besov_from_block_lp(block_lp, s, q),
        blocks=tuple((blk, lp, (2.0 ** (blk * sf)) * lp) for blk, lp in block_lp),
    )


def besov_value(u: SpectralField, s, p, q, m: int | None = None) -> float:
    return besov_norm(u, s, p, q, m).value


def besov_from_block_lp(block_lp: list[tuple[int, float]], s, q) -> float:
    """Combine precomputed block L_p norms into a B^s_{.,q} value."""
    sf, qf = index_float(s), index_float(q)
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


def interpolation_ratio(u: SpectralField, s0, s1, theta, p, q, m: int | None = None) -> InterpolationReport:
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
    block_lp = block_lp_norms(u, p, m)
    s_mid = (1 - th) * index_float(s0) + th * index_float(s1)
    lo = besov_from_block_lp(block_lp, s0, q)
    hi = besov_from_block_lp(block_lp, s1, q)
    mid = besov_from_block_lp(block_lp, s_mid, q)
    return InterpolationReport(True, mid / (lo ** (1 - th) * hi**th), s_mid, (lo, mid, hi))
