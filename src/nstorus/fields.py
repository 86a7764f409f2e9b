"""Truncated divergence-free vector fields on the 2-torus.

A field is stored by its coefficients on the orthonormal divergence-free
basis

    e_k(xi) = (k_perp / (2*pi*|k|)) * exp(i k.xi),   k_perp = (-k2, k1),

over the nonzero integer modes k with |k|_inf <= N/2.  Real-valued fields
satisfy conj(u_k) = -u_{-k}, so only a canonical half of the lattice is
stored (k1 > 0, or k1 == 0 and k2 > 0); the partner coefficient is implied
and the reality constraint cannot be violated by construction.

Basis normalization is fixed here once: the velocity Fourier coefficient
(of exp(i k.xi)) belonging to u_k is u_k * k_perp / (2*pi*|k|), and every
norm in the package depends on that convention.

Every grid transform is a real FFT.  One cached plan per (n, m) holds the
scatter from the canonical lattice into the m x m half spectrum and the
gather back out of it.  Samples are taken only on grids m > 2s, where s is
the |k|_inf support, so no two modes share a slot: a field is scattered
into the support-width half spectrum (m, s + 1), whose columns past s
irfft2 pads with zeros itself.  full_coefficient_arrays is that scatter;
_scatter writes into an array its caller supplies, which
besov.block_lp_norms takes from its reused work buffers.  to_grid's
(2, m, m) velocity stack, made by one irfft2, is a field's only grid
layout.  Products and norms all start from it; grid_stack makes it for a
whole stack of coefficient arrays with one scatter and one irfft2.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InconsistentConjugatePair, ResolutionMismatch, ZeroMode

TWO_PI = 2.0 * np.pi

SNAPSHOT_MAGIC = b"BNSF"
SNAPSHOT_VERSION = 1


def _check_resolution(n: int) -> None:
    if n <= 0 or n % 2:
        raise ResolutionMismatch(f"resolution must be an even positive integer, got {n}")


@lru_cache(maxsize=None)
def _lattice(n: int):
    """Cached index arrays for the canonical half-lattice at resolution n.

    Layout: row i holds k1 = i (0..n/2), column j holds k2 = j - n/2.
    Slots with k1 == 0 and k2 <= 0 are structurally unused.
    """
    _check_resolution(n)
    half = n // 2
    k1 = np.arange(0, half + 1)[:, None] * np.ones(n + 1, dtype=int)[None, :]
    k2 = np.arange(-half, half + 1)[None, :] * np.ones(half + 1, dtype=int)[:, None]
    canon = (k1 > 0) | ((k1 == 0) & (k2 > 0))
    kk = k1 * k1 + k2 * k2
    kabs = np.sqrt(np.where(canon, kk, 1).astype(float))
    # basis direction k_perp/(2 pi |k|), zero on unused slots
    phi1 = np.where(canon, -k2 / (TWO_PI * kabs), 0.0)
    phi2 = np.where(canon, k1 / (TWO_PI * kabs), 0.0)
    for arr in (k1, k2, canon, kk, kabs, phi1, phi2):
        arr.setflags(write=False)
    return k1, k2, canon, kk, kabs, phi1, phi2


@lru_cache(maxsize=None)
def _kinf(n: int) -> np.ndarray:
    """|k|_inf on the canonical layout."""
    k1, k2, _, _, _, _, _ = _lattice(n)
    kinf = np.maximum(np.abs(k1), np.abs(k2))
    kinf.setflags(write=False)
    return kinf


@lru_cache(maxsize=None)
def _band_mask(n: int, band: int) -> np.ndarray:
    """Modes with |k|_inf <= band on the canonical layout."""
    mask = _kinf(n) <= band
    mask.setflags(write=False)
    return mask


@dataclass(frozen=True)
class _Plan:
    """Index arrays between the canonical lattice of n and the m x m real-FFT grid.

    Half-spectrum slots are flat indices into (m, m//2 + 1).  A canonical
    mode k contributes W_k at k (dest_d <- src_d) and conj(W_k) at -k
    (dest_c <- src_c), wherever that slot lies in the half spectrum; both
    lists are sorted by |k|_inf and prefix_*[s] counts the entries with
    |k|_inf <= s.  For 2s < m those entries hit distinct slots.  gather
    reads every canonical slot back, conjugating (gsign = -1) where only -k
    lies in the half spectrum.
    """

    dest_d: np.ndarray
    src_d: np.ndarray
    prefix_d: np.ndarray
    dest_c: np.ndarray
    src_c: np.ndarray
    prefix_c: np.ndarray
    gather: np.ndarray
    gsign: np.ndarray


@lru_cache(maxsize=None)
def _plan(n: int, m: int) -> _Plan:
    k1, k2, canon, _, _, _, _ = _lattice(n)
    mh = m // 2 + 1
    src = np.flatnonzero(canon)
    a1, a2, kinf = k1.ravel()[src], k2.ravel()[src], _kinf(n).ravel()[src]
    smax = np.arange(n // 2 + 1)

    def entries(b1, b2):
        keep = b2 % m < mh
        order = np.argsort(kinf[keep], kind="stable")
        dest = ((b1 % m) * mh + b2 % m)[keep][order]
        return dest, src[keep][order], np.searchsorted(kinf[keep][order], smax, side="right")

    dest_d, src_d, prefix_d = entries(a1, a2)
    dest_c, src_c, prefix_c = entries(-a1, -a2)
    g1, g2 = k1.ravel(), k2.ravel()
    direct = g2 % m < mh
    gather = np.where(direct, (g1 % m) * mh + g2 % m, (-g1 % m) * mh + (-g2 % m))
    gsign = np.where(direct, 1.0, -1.0)
    plan = _Plan(dest_d, src_d, prefix_d, dest_c, src_c, prefix_c, gather, gsign)
    for arr in vars(plan).values():
        arr.setflags(write=False)
    return plan


@lru_cache(maxsize=None)
def _support_scatter(n: int, m: int, s: int):
    """The plan's entries with |k|_inf <= s, onto the (2, m, s + 1) stack (2s < m).

    Returns (dest_d, src_d, dest_c, src_c): src_* are flat canonical slots
    and dest_* the (2, E) flat destinations in the stack, one row per
    velocity component, at row * (s + 1) + column of its plane.
    """
    plan = _plan(n, m)
    mh, width = m // 2 + 1, s + 1
    out = []
    for dest, src, prefix in ((plan.dest_d, plan.src_d, plan.prefix_d),
                              (plan.dest_c, plan.src_c, plan.prefix_c)):
        e = prefix[s]
        narrow = dest[:e] // mh * width + dest[:e] % mh
        out += [narrow + np.array([[0], [m * width]]), src[:e]]
    for arr in out:
        arr.setflags(write=False)
    return tuple(out)


def _scatter(c: np.ndarray, n: int, out: np.ndarray, scatter) -> np.ndarray:
    """Write the velocity weights c * phi_i of c into out at the destinations of scatter.

    scatter is a (dest_d, src_d, dest_c, src_c) tuple of flat indices, as
    _support_scatter returns, whose destinations are distinct.  out is a
    C-contiguous complex array, zero wherever scatter does not write.  c is
    one (n/2 + 1, n + 1) coefficient array or a stack of them; for a stack,
    out starts with the stack's leading axes and each array goes to its own
    block of the rest.  Returns out.
    """
    dest_d, src_d, dest_c, src_c = scatter
    _, _, _, _, _, phi1, phi2 = _lattice(n)
    w = np.stack([c * phi1, c * phi2], axis=-3).reshape(*c.shape[:-2], 2, -1)
    flat = out.reshape(*c.shape[:-2], -1)
    flat[..., dest_d] = w[..., src_d]
    flat[..., dest_c] = w[..., src_c].conj()
    return out


def grid_stack(coeffs: np.ndarray, m: int, s: int) -> np.ndarray:
    """The real (C, 2, m, m) velocity samples of a (C, n/2 + 1, n + 1) coefficient stack.

    Every array of the stack has |k|_inf support at most s, with 2s < m.  One
    scatter puts them all into (C, 2, m, s + 1) support-width half spectra
    and one irfft2 takes them to the grid.  Row j equals
    SpectralField(n, coeffs[j]).to_grid(m): the columns between its own
    support and s hold zeros, which do not change the samples.
    """
    n = 2 * (coeffs.shape[-2] - 1)
    spec = np.zeros((len(coeffs), 2, m, s + 1), dtype=np.complex128)
    _scatter(coeffs, n, spec, _support_scatter(n, m, s))
    return np.fft.irfft2(spec, s=(m, m), norm="forward")


def canonical_shape(n: int) -> tuple[int, int]:
    return (n // 2 + 1, n + 1)


def is_canonical(k1: int, k2: int) -> bool:
    return k1 > 0 or (k1 == 0 and k2 > 0)


class SpectralField:
    """Immutable truncated divergence-free field at resolution n.

    Coefficients live on the canonical half-lattice; the conjugate partner
    u_{-k} = -conj(u_k) is implicit.  Arithmetic is only defined between
    fields of equal resolution, and scalar multiplication is restricted to
    real scalars (complex scalars would break the reality constraint).
    """

    # _max_mode_inf and the block L_p norms of besov.block_lp_norms are
    # filled on first use; both depend only on the read-only c.
    __slots__ = ("n", "c", "_max_mode_inf", "_block_lp")

    def __init__(self, n: int, coeffs: np.ndarray):
        k1, k2, canon, _, _, _, _ = _lattice(n)
        if coeffs.shape != canonical_shape(n):
            raise ResolutionMismatch(
                f"coefficient array shape {coeffs.shape} != {canonical_shape(n)}"
            )
        c = np.where(canon, coeffs, 0.0).astype(np.complex128, copy=False)
        c.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "c", c)

    @classmethod
    def _view(cls, n: int, c: np.ndarray) -> "SpectralField":
        """The field over c itself: no copy and no re-mask.

        c must be a complex (n/2 + 1, n + 1) array that is zero off the
        canonical slots, as sums and lattice-weighted products of field
        coefficients are; this array object is made read-only.
        """
        field = object.__new__(cls)
        c.setflags(write=False)
        object.__setattr__(field, "n", n)
        object.__setattr__(field, "c", c)
        return field

    def __setattr__(self, name, value):
        raise AttributeError("SpectralField is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, n: int) -> "SpectralField":
        return cls(n, np.zeros(canonical_shape(n), dtype=np.complex128))

    @classmethod
    def from_modes(cls, n: int, modes) -> "SpectralField":
        """Build a field from (k, u_k) pairs, auto-filling conjugate partners.

        Listing both +k and -k is allowed only if the pair is consistent:
        conj(u_k) = -u_{-k} within 1e-12 (scaled by the coefficient size).
        """
        half = n // 2
        seen: dict[tuple[int, int], complex] = {}
        for (m1, m2), val in modes:
            m1, m2 = int(m1), int(m2)
            if (m1, m2) == (0, 0):
                raise ZeroMode("mode (0,0) is excluded (mean-zero fields)")
            if max(abs(m1), abs(m2)) > half:
                raise ResolutionMismatch(f"mode {(m1, m2)} outside |k|_inf <= {half}")
            val = complex(val)
            if (m1, m2) in seen and abs(seen[(m1, m2)] - val) > 1e-12 * max(1.0, abs(val)):
                raise InconsistentConjugatePair(f"mode {(m1, m2)} listed twice with different values")
            seen[(m1, m2)] = val

        for (m1, m2), val in seen.items():
            if (-m1, -m2) in seen:
                other = seen[(-m1, -m2)]
                if abs(np.conj(val) + other) > 1e-12 * max(1.0, abs(val), abs(other)):
                    raise InconsistentConjugatePair(
                        f"modes {(m1, m2)} / {(-m1, -m2)} violate conj(u_k) = -u_(-k)"
                    )
        c = np.zeros(canonical_shape(n), dtype=np.complex128)
        # derived partners first so directly-supplied canonical values win
        for (m1, m2), val in seen.items():
            if not is_canonical(m1, m2):
                c[-m1, -m2 + half] = -np.conj(val)
        for (m1, m2), val in seen.items():
            if is_canonical(m1, m2):
                c[m1, m2 + half] = val
        return cls(n, c)

    # -- basic queries ------------------------------------------------------

    def coeff(self, k1: int, k2: int) -> complex:
        """Coefficient u_k for any nonzero mode in range (partner implied)."""
        half = self.n // 2
        if (k1, k2) == (0, 0):
            raise ZeroMode("mode (0,0) is excluded")
        if max(abs(k1), abs(k2)) > half:
            raise ResolutionMismatch(f"mode {(k1, k2)} outside |k|_inf <= {half}")
        if is_canonical(k1, k2):
            return complex(self.c[k1, k2 + half])
        return complex(-np.conj(self.c[-k1, -k2 + half]))

    @property
    def max_mode_inf(self) -> int:
        """The |k|_inf support: largest |k|_inf with a nonzero coefficient (0 if none)."""
        try:
            return self._max_mode_inf
        except AttributeError:
            kinf = _kinf(self.n)[self.c != 0]
            support = int(kinf.max()) if kinf.size else 0
            object.__setattr__(self, "_max_mode_inf", support)
            return support

    def is_zero(self) -> bool:
        return not np.any(self.c)

    def has_nonfinite(self) -> bool:
        return not np.all(np.isfinite(self.c))

    # -- algebra -------------------------------------------------------------

    def _require_same(self, other: "SpectralField") -> None:
        if self.n != other.n:
            raise ResolutionMismatch(f"resolutions differ: {self.n} vs {other.n}")

    def __add__(self, other: "SpectralField") -> "SpectralField":
        self._require_same(other)
        return SpectralField(self.n, self.c + other.c)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        self._require_same(other)
        return SpectralField(self.n, self.c - other.c)

    def __neg__(self) -> "SpectralField":
        return SpectralField(self.n, -self.c)

    def __mul__(self, scalar) -> "SpectralField":
        if isinstance(scalar, complex) and scalar.imag != 0.0:
            raise ValueError("only real scalars preserve the reality constraint")
        return SpectralField(self.n, self.c * float(np.real(scalar)))

    __rmul__ = __mul__

    def scale_radial(self, weights: np.ndarray) -> "SpectralField":
        """Multiply each coefficient by a real weight indexed like the lattice."""
        return SpectralField(self.n, self.c * weights)

    def radial_weights(self, fn) -> np.ndarray:
        """Evaluate fn(|k|^2 int array) -> real weights on the canonical layout."""
        _, _, canon, kk, _, _, _ = _lattice(self.n)
        return np.where(canon, fn(np.where(canon, kk, 1)), 0.0)

    def low_pass(self, k_cut: int) -> "SpectralField":
        """Keep modes with Euclidean |k| <= k_cut."""
        _, _, _, kk, _, _, _ = _lattice(self.n)
        return SpectralField(self.n, np.where(kk <= k_cut * k_cut, self.c, 0.0))

    # -- inner products and quick norms ---------------------------------------

    def inner(self, other: "SpectralField") -> float:
        """L2 inner product (u, v) = sum_k u_k conj(v_k); real by reality."""
        self._require_same(other)
        return 2.0 * float(np.real(np.vdot(other.c, self.c)))

    def energy(self) -> float:
        """Squared L2 norm sum_k |u_k|^2."""
        return 2.0 * float(np.sum(np.abs(self.c) ** 2))

    def l2_norm(self) -> float:
        return float(np.sqrt(self.energy()))

    def h_norm(self, s: float) -> float:
        """Sobolev H^s_2 norm via Parseval: (sum |k|^(2s) |u_k|^2)^(1/2)."""
        _, _, canon, kk, _, _, _ = _lattice(self.n)
        w = np.where(canon, np.where(canon, kk, 1).astype(float) ** float(s), 0.0)
        return float(np.sqrt(2.0 * np.sum(w * np.abs(self.c) ** 2)))

    # -- grid transforms -------------------------------------------------------

    def full_coefficient_arrays(self, m: int) -> np.ndarray:
        """Velocity Fourier coefficients (of exp(i k.xi)) on the m x m real-FFT half spectrum.

        Returns the support-width (2, m, s + 1) stack, s = max_mode_inf:
        every column past s is zero, and irfft2(..., s=(m, m)) pads those
        itself.  A grid m <= 2s, on which modes would share slots, raises
        ResolutionMismatch.
        """
        n, s = self.n, self.max_mode_inf
        if m <= 2 * s:
            raise ResolutionMismatch(f"grid size {m} <= 2 x support {s}: modes would alias")
        out = np.zeros((2, m, s + 1), dtype=np.complex128)
        return _scatter(self.c, n, out, _support_scatter(n, m, s))

    def to_grid(self, m: int | None = None) -> np.ndarray:
        """The real (2, m, m) stack [u1, u2] of samples on the uniform m x m grid.

        m defaults to 2n (exact trapezoidal quadrature for quadratic
        quantities of the reconstructed trigonometric polynomial).
        """
        if m is None:
            m = 2 * self.n
        if m < self.n:
            raise ResolutionMismatch(f"grid size {m} < resolution {self.n}")
        return np.fft.irfft2(self.full_coefficient_arrays(m), s=(m, m), norm="forward")


_RANDOM_MASTER_N = 256


@lru_cache(maxsize=64)
def _master_noise(seed: int) -> np.ndarray:
    """Complex standard normals on the master lattice, one draw per seed.

    Each mode's noise is a function of (seed, k) alone, so the same seed
    yields the same underlying field truncated at every resolution; that is
    what makes cross-resolution constant measurements comparable.
    """
    rng = np.random.default_rng(seed)
    shape = canonical_shape(_RANDOM_MASTER_N)
    xi = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    xi.setflags(write=False)
    return xi


def random_field(
    n: int,
    gamma: float,
    seed: int,
    band: int | None = None,
    amplitude: float = 1.0,
) -> SpectralField:
    """Random field with power-law coefficients u_k = amplitude |k|^(-gamma) xi_k.

    xi_k are complex standard normal, deterministic per seed and per mode
    (independent of n, up to the master resolution).  band, when given,
    restricts the support to |k|_inf <= band.
    """
    if n > _RANDOM_MASTER_N:
        raise ResolutionMismatch(f"random fields capped at resolution {_RANDOM_MASTER_N}")
    if band is not None and band < 1:
        raise ValueError(f"band must be at least 1, got {band}")
    _, _, canon, kk, _, _, _ = _lattice(n)
    half, master_half = n // 2, _RANDOM_MASTER_N // 2
    xi = _master_noise(int(seed))[: half + 1, master_half - half: master_half + half + 1]
    mag = np.where(canon, kk, 1).astype(float) ** (-float(gamma) / 2.0)
    c = amplitude * mag * xi
    if band is not None:
        c = np.where(_band_mask(n, band), c, 0.0)
    return SpectralField(n, np.where(canon, c, 0.0))


def gamma_for_regularity(sigma: float) -> float:
    """Power-law exponent putting random fields near regularity sigma.

    A field with |u_k| ~ |k|^(-gamma) has dyadic block L2 norms ~ 2^(m(1-gamma)),
    so its B^sigma norms are marginal at gamma = sigma + 1; a margin of 1/2
    keeps truncated norms convergent across resolutions.
    """
    return float(sigma) + 1.0 + 0.5


# -- snapshot persistence -------------------------------------------------------


def save_snapshot(field: SpectralField, path, time: float = 0.0) -> None:
    """Write the binary snapshot: header (magic, version, N, time) + canonical coeffs."""
    _, _, canon, _, _, _, _ = _lattice(field.n)
    payload = field.c[canon]  # row-major canonical order by construction
    buf = bytearray()
    buf += SNAPSHOT_MAGIC
    buf += struct.pack("<I", SNAPSHOT_VERSION)
    buf += struct.pack("<I", field.n)
    buf += struct.pack("<d", float(time))
    interleaved = np.empty(2 * payload.size, dtype="<f8")
    interleaved[0::2] = payload.real
    interleaved[1::2] = payload.imag
    buf += interleaved.tobytes()
    with open(path, "wb") as fh:
        fh.write(bytes(buf))


def load_snapshot(path) -> tuple[SpectralField, float]:
    """Read a snapshot, checking header and payload size before building anything."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != SNAPSHOT_MAGIC:
        raise ValueError("bad snapshot magic")
    if len(raw) < 20:
        raise ValueError(f"snapshot header truncated: {len(raw)} of 20 bytes")
    version, n, time = struct.unpack("<IId", raw[4:20])
    if version != SNAPSHOT_VERSION:
        raise ValueError(f"unsupported snapshot version {version}")
    _check_resolution(n)
    # the canonical half-lattice has (n/2)(n+2) slots, each a (re, im) pair
    if len(raw) - 20 != 16 * (n // 2) * (n + 2):
        raise ValueError("snapshot payload size mismatch")
    _, _, canon, _, _, _, _ = _lattice(n)
    data = np.frombuffer(raw[20:], dtype="<f8")
    coeffs = np.zeros(canonical_shape(n), dtype=np.complex128)
    coeffs[canon] = data[0::2] + 1j * data[1::2]
    return SpectralField(n, coeffs), time
