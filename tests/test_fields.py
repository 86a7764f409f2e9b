"""Field representation, transforms, stream function, persistence."""

import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nstorus import fields
from nstorus.errors import InconsistentConjugatePair, ResolutionMismatch, ZeroMode
from nstorus.fields import (
    SpectralField,
    _leray_project,
    canonical_shape,
    load_snapshot,
    random_field,
    save_snapshot,
)


def grid_nodes(m):
    """Grid coordinates 2 pi a / m."""
    return 2 * np.pi * np.arange(m) / m


def project(values, n):
    """Leray projection of real (2, m, m) grid samples onto the basis at resolution n."""
    spec = np.fft.rfft2(values, norm="forward")
    return SpectralField(n, _leray_project(spec, n))


def scalar_modes_to_grid(coeffs, m):
    """Evaluate a scalar spectrum sum_k c_k exp(i k.xi) / (2 pi) on the m x m grid."""
    c = np.zeros((m, m), dtype=np.complex128)
    for (k1, k2), val in coeffs.items():
        c[k1 % m, k2 % m] += val / (2 * np.pi)
    return np.fft.ifft2(c).real * (m * m)


def perp_gradient(scalar):
    """(-d/dxi2, d/dxi1) of a scalar grid sample, spectrally."""
    k = np.fft.fftfreq(scalar.shape[0], d=1.0 / scalar.shape[0])
    fh = np.fft.fft2(scalar)
    d1 = np.fft.ifft2(1j * k[:, None] * fh).real
    d2 = np.fft.ifft2(1j * k[None, :] * fh).real
    return np.stack([-d2, d1])


class TestFromModes:
    def test_zero_field(self):
        u = SpectralField.from_modes(8, [])
        assert u.is_zero()
        assert u.l2_norm() == 0.0
        assert u.energy() == 0.0

    def test_single_mode_autofills_conjugate_partner(self):
        u = SpectralField.from_modes(8, [((2, 0), 1.0)])
        assert u.coeff(2, 0) == 1.0
        assert u.coeff(-2, 0) == -1.0

    def test_single_mode_reconstruction_closed_form(self):
        # u = e_k - e_{-k} with k = (2,0) is (0, cos(2 xi1)/pi)
        u = SpectralField.from_modes(8, [((2, 0), 1.0)])
        g = u.to_grid(16)
        xi = grid_nodes(16)
        expected = np.cos(2 * xi)[:, None] / np.pi * np.ones(16)[None, :]
        assert np.max(np.abs(g[0])) == 0.0
        assert np.max(np.abs(g[1] - expected)) < 1e-14

    def test_consistent_pair_accepted(self):
        u = SpectralField.from_modes(8, [((2, 0), 1.0), ((-2, 0), -1.0)])
        assert u.coeff(2, 0) == 1.0

    def test_inconsistent_pair_rejected(self):
        with pytest.raises(InconsistentConjugatePair):
            SpectralField.from_modes(8, [((2, 0), 1.0), ((-2, 0), 1.0)])

    def test_zero_mode_rejected(self):
        with pytest.raises(ZeroMode):
            SpectralField.from_modes(8, [((0, 0), 1.0)])

    def test_mode_outside_resolution_rejected(self):
        with pytest.raises(ResolutionMismatch):
            SpectralField.from_modes(8, [((5, 0), 1.0)])

    def test_duplicate_listing_with_different_values_rejected(self):
        with pytest.raises(InconsistentConjugatePair):
            SpectralField.from_modes(8, [((2, 0), 1.0), ((2, 0), 2.0)])


class TestGridTransforms:
    def test_zero_round_trip(self):
        u = SpectralField.zeros(8)
        assert project(u.to_grid(16), 8).is_zero()

    @pytest.mark.parametrize("m_extra", [2, 8, 16])
    def test_round_trip_identity(self, m_extra):
        u = random_field(8, 1.0, seed=3)
        m = 8 + m_extra
        v = project(u.to_grid(m), 8)
        scale = np.max(np.abs(u.c))
        assert np.max(np.abs(v.c - u.c)) < 1e-12 * scale

    def test_to_grid_rejects_small_grid(self):
        u = random_field(8, 1.0, seed=3)
        with pytest.raises(ResolutionMismatch):
            u.to_grid(6)

    @pytest.mark.parametrize("m", [9, 10, 16, 32])
    def test_parseval(self, m):
        u = random_field(8, 0.5, seed=11)
        g = u.to_grid(m)
        grid_sq = (2 * np.pi / m) ** 2 * np.sum(g**2)
        assert abs(grid_sq - u.energy()) < 1e-10 * u.energy()

    def test_gradient_field_projects_to_zero(self):
        m = 32
        xi1 = grid_nodes(m)[:, None] * np.ones(m)[None, :]
        xi2 = np.ones(m)[:, None] * grid_nodes(m)[None, :]
        grad_phi = np.stack([-np.sin(xi1 + xi2), -np.sin(xi1 + xi2)])
        z = project(grad_phi, 8)
        assert np.max(np.abs(z.c)) < 1e-12 * np.max(np.abs(grad_phi))

    def test_leray_projection_idempotent(self):
        rng = np.random.default_rng(5)
        m = 32
        raw = rng.standard_normal((2, m, m))
        raw -= raw.mean(axis=(1, 2), keepdims=True)
        once = project(raw, 8)
        twice = project(once.to_grid(m), 8)
        scale = np.max(np.abs(once.c))
        assert np.max(np.abs(twice.c - once.c)) < 1e-12 * scale

    def test_reconstruction_divergence_free(self):
        # rows 2..5 of a grid state are d1 u1, d2 u1, d1 u2, d2 u2
        g = random_field(16, 0.5, seed=2).grid_state(32).values
        div = g[2] + g[5]
        grad_scale = np.max(np.abs(g[2:]))
        assert np.max(np.abs(div)) <= 1e-12 * grad_scale


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(half=st.integers(1, 32), data=st.data())
def test_grid_samples_are_the_grid_state_velocity(half, data):
    # to_grid and grid_state share one scatter and one irfft2 layout, so the
    # (2, m, m) samples are the first two rows of the grid state bit for bit
    n = 2 * half
    support = data.draw(st.integers(1, half), label="support")
    m = data.draw(st.integers(max(n, 2 * support + 1), 2 * n + 2), label="m")
    u = random_field(n, 1.0, data.draw(st.integers(0, 1000), label="seed"), band=support)
    assert np.array_equal(u.to_grid(m), u.grid_state(m).values[:2])


class TestStreamFunction:
    def test_zero_field(self):
        assert SpectralField.zeros(8).stream_coefficients() == {}or \
            all(v == 0 for v in SpectralField.zeros(8).stream_coefficients().values())

    def test_single_mode_stream_is_sinusoid(self):
        u = SpectralField.from_modes(8, [((2, 0), 1.0)])
        psi = u.stream_coefficients()
        grid = scalar_modes_to_grid(psi, 16)
        xi = grid_nodes(16)
        # psi = sin(2 xi1) / (2 pi), fixed by u = perp-grad psi
        expected = np.sin(2 * xi)[:, None] / (2 * np.pi) * np.ones(16)[None, :]
        assert np.max(np.abs(grid - expected)) < 1e-14
        rec = perp_gradient(grid)
        assert np.max(np.abs(rec - u.to_grid(16))) < 1e-13

    def test_random_field_stream_recovers_velocity(self):
        u = random_field(8, 1.0, seed=21)
        psi = u.stream_coefficients()
        rec = perp_gradient(scalar_modes_to_grid(psi, 16))
        g = u.to_grid(16)
        assert np.max(np.abs(rec - g)) <= 1e-12 * max(np.max(np.abs(g)), 1e-300)


class TestRandomField:
    def test_deterministic_per_seed(self):
        a = random_field(16, 1.5, seed=7)
        b = random_field(16, 1.5, seed=7)
        assert np.array_equal(a.c, b.c)

    def test_different_seeds_differ(self):
        a = random_field(16, 1.5, seed=7)
        b = random_field(16, 1.5, seed=8)
        assert not np.array_equal(a.c, b.c)

    def test_reality_condition_holds(self):
        u = random_field(16, 0.0, seed=3)
        for k1, k2 in [(1, 0), (3, -2), (0, 4), (8, 8), (-5, 1)]:
            assert u.coeff(-k1, -k2) == -np.conj(u.coeff(k1, k2))

    def test_coherent_across_resolutions(self):
        # same seed yields the same underlying field truncated at each n
        a = random_field(8, 1.0, seed=9)
        b = random_field(32, 1.0, seed=9)
        assert a.coeff(2, -1) == b.coeff(2, -1)

    def test_band_restriction(self):
        u = random_field(16, 1.0, seed=4, band=3)
        assert u.max_mode_inf <= 3

    @pytest.mark.parametrize("band", [0, -1])
    def test_band_below_one_rejected(self, band):
        # such a band masks every mode away, leaving an all-zero field
        with pytest.raises(ValueError, match="band"):
            random_field(16, 1.0, seed=4, band=band)


class TestAlgebra:
    def test_real_scalar_and_addition(self):
        a = random_field(8, 1.0, seed=1)
        b = random_field(8, 1.0, seed=2)
        c = 2.0 * a + b - a
        assert np.allclose(c.c, a.c + b.c)

    def test_complex_scalar_rejected(self):
        with pytest.raises(ValueError):
            random_field(8, 1.0, seed=1) * (1.0 + 2.0j)

    def test_resolution_mismatch(self):
        with pytest.raises(ResolutionMismatch):
            random_field(8, 1.0, seed=1) + random_field(16, 1.0, seed=1)

    def test_immutable(self):
        u = random_field(8, 1.0, seed=1)
        with pytest.raises(AttributeError):
            u.n = 4
        with pytest.raises(ValueError):
            u.c[0, 0] = 1.0

    def test_inner_product_matches_grid_integral(self):
        a = random_field(8, 1.0, seed=1)
        b = random_field(8, 1.0, seed=2)
        ga, gb = a.to_grid(32), b.to_grid(32)
        integral = (2 * np.pi / 32) ** 2 * np.sum(ga * gb)
        assert abs(a.inner(b) - integral) < 1e-12 * max(1.0, abs(integral))


class TestSnapshots:
    def test_round_trip(self, tmp_path):
        u = random_field(12, 1.2, seed=6)
        path = tmp_path / "field.bnsf"
        save_snapshot(u, path, time=0.75)
        v, t = load_snapshot(path)
        assert t == 0.75
        assert v.n == 12
        assert np.array_equal(v.c, u.c)

    def test_header_layout(self, tmp_path):
        u = SpectralField.zeros(4)
        path = tmp_path / "zero.bnsf"
        save_snapshot(u, path)
        raw = path.read_bytes()
        assert raw[:4] == b"BNSF"
        n_canonical = ((4 + 1) ** 2 - 1) // 2
        assert len(raw) == 20 + 16 * n_canonical

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bnsf"
        path.write_bytes(b"XXXX" + bytes(32))
        with pytest.raises(ValueError):
            load_snapshot(path)

    def test_payload_size_checked_before_the_lattice_is_built(self, tmp_path, monkeypatch):
        path = tmp_path / "huge.bnsf"
        path.write_bytes(b"BNSF" + struct.pack("<IId", 1, 2**20, 0.0))

        def refuse(n):
            raise AssertionError(f"lattice built for n = {n}")

        monkeypatch.setattr(fields, "_lattice", refuse)
        with pytest.raises(ValueError, match="payload size mismatch"):
            load_snapshot(path)

    @pytest.mark.parametrize("n", [0, 7])
    def test_odd_or_zero_resolution_rejected(self, tmp_path, n):
        path = tmp_path / "odd.bnsf"
        path.write_bytes(b"BNSF" + struct.pack("<IId", 1, n, 0.0))
        with pytest.raises(ResolutionMismatch):
            load_snapshot(path)


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(half=st.integers(1, 16), data=st.data())
def test_from_modes_coeff_round_trip(half, data):
    n = 2 * half
    k = data.draw(st.tuples(st.integers(-half, half), st.integers(-half, half))
                  .filter(lambda k: k != (0, 0)))
    value = complex(data.draw(FINITE), data.draw(FINITE))
    u = SpectralField.from_modes(n, [(k, value)])
    assert u.coeff(*k) == value
    assert u.coeff(-k[0], -k[1]) == -np.conj(value)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(half=st.integers(1, 16), seed=st.integers(0, 2**32 - 1),
       scale=st.floats(1e-300, 1e300), time=FINITE)
def test_snapshot_round_trip_is_bit_exact(half, seed, scale, time):
    n = 2 * half
    rng = np.random.default_rng(seed)
    shape = canonical_shape(n)
    u = SpectralField(n, scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "u.bnsf"
        save_snapshot(u, path, time=time)
        v, t = load_snapshot(path)
    assert v.n == n
    assert v.c.tobytes() == u.c.tobytes()
    assert struct.pack("<d", t) == struct.pack("<d", time)
