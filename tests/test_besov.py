"""Norm toolkit: L_p quadrature, dyadic blocks, log-convexity in s."""

import json
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nstorus.besov import (
    BesovParams,
    _block_labels,
    _block_lows,
    as_fraction,
    besov_from_block_lp,
    besov_norm,
    besov_value,
    block_lp_norms,
    lp_norm,
    sobolev_norm,
)
from nstorus.fields import SpectralField, _lattice, random_field

SINGLE = SpectralField.from_modes(8, [((2, 0), 1.0)])


class TestParams:
    def test_rational_construction_and_regularity(self):
        p = BesovParams("4/3", "5/2", 3, 3)
        assert p.initial_regularity == 0
        p2 = BesovParams("9/10", 12, 2, "20/19")
        assert p2.initial_regularity == Fraction(-4, 5)

    def test_floats_rejected(self):
        with pytest.raises(ValueError):
            as_fraction("1.5")
        with pytest.raises(ValueError):
            BesovParams(1.5, 2, 2, 2)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            BesovParams(0, 1, 2, 2)


class TestLpNorm:
    def test_zero(self):
        assert lp_norm(SpectralField.zeros(8).to_grid(), 2) == 0.0

    def test_single_mode_l2_is_sqrt2(self):
        assert abs(lp_norm(SINGLE.to_grid(), 2) - np.sqrt(2)) < 1e-13

    def test_single_mode_l4_closed_form(self):
        expected = (3.0 / (2.0 * np.pi**2)) ** 0.25
        assert abs(lp_norm(SINGLE.to_grid(), 4) - expected) < 1e-13
        # cross-check on a finer quadrature grid
        assert abs(lp_norm(SINGLE.to_grid(128), 4) - expected) < 1e-13

    def test_p_below_one_rejected(self):
        with pytest.raises(ValueError):
            lp_norm(SINGLE.to_grid(), Fraction(1, 2))

    def test_parseval_cross_check(self):
        u = random_field(16, 1.0, seed=8)
        assert abs(lp_norm(u.to_grid(), 2) - u.l2_norm()) < 1e-10 * u.l2_norm()

    @pytest.mark.parametrize("p", [2, Fraction(5, 2), 4])
    def test_samples_are_left_unchanged(self, p):
        samples = random_field(16, 1.0, seed=10).to_grid()
        before = samples.copy()
        lp_norm(samples, p)
        assert np.array_equal(samples, before)


class TestSobolevNorm:
    def test_zero(self):
        assert sobolev_norm(SpectralField.zeros(8), 1, 2) == 0.0

    def test_single_mode_scaling(self):
        assert abs(sobolev_norm(SINGLE, 1, 2) - 2 * np.sqrt(2)) < 1e-13

    def test_s_zero_is_lp(self):
        u = random_field(8, 1.0, seed=4)
        for p in (2, 3, 4):
            assert abs(sobolev_norm(u, 0, p) - lp_norm(u.to_grid(), p)) < 1e-12

    def test_parseval_shortcut_agrees(self):
        u = random_field(8, 0.5, seed=9)
        for s in (-1.0, 0.5, 2.0):
            assert abs(sobolev_norm(u, s, 2) - u.h_norm(s)) < 1e-10 * u.h_norm(s)


def _block_modes(n):
    """The modes of each block label of _block_labels, both orientations, as sets."""
    k1a, k2a, _, _, _, _, _ = _lattice(n)
    labels = _block_labels(n)
    blocks = []
    for b in range(len(_block_lows(n))):
        mask = labels == b
        modes = set()
        for k1, k2 in zip(k1a[mask], k2a[mask]):
            modes |= {(int(k1), int(k2)), (int(-k1), int(-k2))}
        blocks.append(modes)
    return blocks


class TestDyadicBlocks:
    def test_partition_disjoint_exhaustive(self):
        seen = set()
        for modes in _block_modes(16):
            assert not (seen & modes)
            seen |= modes
        half = 8
        expected = {(k1, k2) for k1 in range(-half, half + 1)
                    for k2 in range(-half, half + 1) if (k1, k2) != (0, 0)}
        assert seen == expected

    def test_block_boundaries(self):
        by_mode = {}
        for m, modes in enumerate(_block_modes(16)):
            for k in modes:
                by_mode[k] = m
        assert by_mode[(1, 0)] == 0
        assert by_mode[(2, 0)] == 0      # |k| = 2 stays in the widened first block
        assert by_mode[(2, 1)] == 1      # |k| = sqrt(5) in (2, 4]
        assert by_mode[(4, 0)] == 1
        assert by_mode[(4, 1)] == 2      # |k| = sqrt(17) in (4, 8]
        assert by_mode[(8, 8)] == 3


class TestBesovNorm:
    def test_zero(self):
        assert besov_value(SpectralField.zeros(8), 1, 2, 2) == 0.0

    @pytest.mark.parametrize("s,q", [(0, 2), (1, 2), ("-4/3", 3), (2, 5)])
    def test_single_mode_block0_collapse(self, s, q):
        assert abs(besov_value(SINGLE, s, 2, q) - np.sqrt(2)) < 1e-13

    def test_one_block_weight_arithmetic(self):
        u = SpectralField.from_modes(16, [((4, 0), 0.7)])
        assert abs(besov_value(u, 1, 2, 2) - 2 * np.sqrt(2) * 0.7) < 1e-13

    def test_report_shape_and_json(self):
        rep = besov_norm(SINGLE, Fraction(1, 2), 2, 3)
        data = json.loads(rep.to_json())
        assert set(data) == {"kind", "s", "p", "q", "N", "M", "value", "blocks",
                             "block0_convention"}
        assert data["N"] == 8 and data["M"] == 16
        assert data["block0_convention"] == "0<|k|<=2"
        assert all(set(b) == {"m", "lp", "contribution"} for b in data["blocks"])

    def test_fraction_indices_recorded_exactly(self):
        rep = besov_norm(SINGLE, Fraction(-1), Fraction(5, 2), Fraction(3))
        assert all(type(x) is Fraction for x in (rep.s, rep.p, rep.q))
        assert (rep.s, rep.p, rep.q) == (-1, Fraction(5, 2), 3)
        data = json.loads(rep.to_json())
        assert (data["s"], data["p"], data["q"]) == ("-1", "5/2", "3")

    def test_float_indices_recorded_as_floats(self):
        rep = besov_norm(SINGLE, -1.0, 2.5, 3.0)
        assert all(type(x) is float for x in (rep.s, rep.p, rep.q))
        assert (rep.s, rep.p, rep.q) == (-1.0, 2.5, 3.0)
        data = json.loads(rep.to_json())
        assert (data["s"], data["p"], data["q"]) == ("-1.0", "2.5", "3.0")
        assert rep.value == besov_value(SINGLE, Fraction(-1), Fraction(5, 2), Fraction(3))

    def test_power_law_concentrates_in_first_block(self):
        u = random_field(32, 10.0, seed=2)
        rep = besov_norm(u, 0, 2, 2)
        contribs = [c for (_, _, c) in rep.blocks]
        assert contribs[0] / sum(contribs) >= 0.99

    def test_monotone_in_s_constant_one(self):
        u = random_field(16, 1.0, seed=12)
        for t, s in [(0, 1), (-2, -1), (0.5, 2.5)]:
            assert besov_value(u, t, 2, 3) <= besov_value(u, s, 2, 3) * (1 + 1e-12)

    def test_monotone_in_q_constant_one(self):
        u = random_field(16, 1.0, seed=13)
        for q1, q2 in [(2, 3), (2, 10), (3, 4)]:
            assert besov_value(u, 1, 2, q2) <= besov_value(u, 1, 2, q1) * (1 + 1e-12)

    def test_homogeneity_dyadic_exact(self):
        u = random_field(16, 1.0, seed=14)
        base = besov_value(u, 1, 2, 2)
        assert besov_value(2.0 * u, 1, 2, 2) == 2.0 * base

    def test_homogeneity_generic(self):
        u = random_field(16, 1.0, seed=15)
        lam = 0.731
        a = besov_value(lam * u, Fraction(1, 2), 3, 3)
        b = lam * besov_value(u, Fraction(1, 2), 3, 3)
        assert abs(a - b) <= 1e-12 * b

    def test_b22_h2_envelope(self):
        for s in (-1.5, -0.5, 0.5, 1.0, 2.0):
            for seed in range(5):
                u = random_field(16, 1.0, seed=seed)
                ratio = besov_value(u, s, 2, 2) / u.h_norm(s)
                bound = 2.0 ** abs(s)
                assert 1.0 / bound * (1 - 1e-12) <= ratio <= bound * (1 + 1e-12)


def log_convexity_ratio(u, s0, s1, theta, p, q) -> float:
    """||u||_{B^{s_theta}} / (||u||_{B^{s0}}^(1-theta) ||u||_{B^{s1}}^theta) at shared (p, q).

    Hoelder's inequality on the l^q sum over blocks makes s -> log ||u||_{B^s_{p,q}}
    convex, so the ratio is at most 1, with equality for a one-block field.
    """
    s_mid = (1 - theta) * s0 + theta * s1
    lo, mid, hi = (besov_value(u, s, p, q) for s in (s0, s_mid, s1))
    return mid / (lo ** (1 - theta) * hi**theta)


class TestInterpolation:
    def test_single_block_field_ratio_one(self):
        u = random_field(32, 0.0, seed=5, band=1)
        assert abs(log_convexity_ratio(u, 0, 2, 0.3, 3, 4) - 1.0) < 1e-12

    def test_q2_is_cauchy_schwarz(self):
        for seed in range(10):
            u = random_field(32, 1.5, seed=seed)
            assert log_convexity_ratio(u, 0, 2, 0.5, 2, 2) <= 1.0 + 1e-10

    def test_shared_pq_endpoints_are_hoelder_exact(self):
        for seed, (p, q, th) in enumerate([(3, 3, 0.25), (2, 5, 0.7), (4, 2, 0.5)]):
            u = random_field(16, 1.0, seed=40 + seed)
            assert log_convexity_ratio(u, -1, 1.5, th, p, q) <= 1.0 + 1e-10

    def test_q_below_one_rejected_like_besov_norm(self):
        u = random_field(16, 1.0, seed=41)
        for value in (lambda: besov_norm(u, 0, 2, "1/2"),
                      lambda: besov_value(u, 0, 2, "1/2")):
            with pytest.raises(ValueError, match="q must be >= 1"):
                value()


def test_block_lp_reuse_matches_direct():
    u = random_field(16, 1.0, seed=30)
    blocks = block_lp_norms(u, 3)
    direct = besov_value(u, Fraction(1, 2), 3, 4)
    assert abs(besov_from_block_lp(blocks, 0.5, 4) - direct) < 1e-14


def block_masks(n):
    """Boolean masks on the canonical layout, one per dyadic block, stacked."""
    _, _, canon, kk, _, _, _ = _lattice(n)
    return np.stack([canon & (kk > lo) & (kk <= 4 ** (b + 1))
                     for b, lo in enumerate(_block_lows(n))])


def all_blocks_lp_norms(u, p):
    """Every dyadic block through one batched irfft2, with no memo and no skip.

    Each block's masked coefficients go to the full-width (m, m//2 + 1) half
    spectrum: a mode k at (k1 mod m, k2), its partner at (-k1 mod m, -k2)
    where that column lies in the half spectrum.
    """
    n, m = u.n, 2 * u.n
    k1, k2, canon, _, _, phi1, phi2 = _lattice(n)
    masks = block_masks(n)
    spec = np.zeros((len(masks), 2, m, m // 2 + 1), dtype=np.complex128)
    for sign in (1, -1):
        rows, cols = (sign * k1) % m, (sign * k2) % m
        slots = canon & (cols <= m // 2)
        for planes, mask in zip(spec, masks):
            c = u.c * mask
            for plane, phi in zip(planes, (phi1, phi2)):
                w = (c * phi)[slots]
                plane[rows[slots], cols[slots]] = w if sign == 1 else w.conj()
    values = np.fft.irfft2(spec, s=(m, m), norm="forward")
    mag = np.sqrt(values[:, 0] ** 2 + values[:, 1] ** 2)
    pf = float(p)
    lp = ((2.0 * np.pi / m) ** 2 * np.sum(mag**pf, axis=(-2, -1))) ** (1.0 / pf)
    return [(blk, float(v)) for blk, v in enumerate(lp)]


def _recording(fn, shapes):
    def wrapper(*args, **kwargs):
        shapes.append(args[0].shape)
        return fn(*args, **kwargs)

    return wrapper


@pytest.fixture
def transforms(monkeypatch):
    """The input shape of each block-norm transform made while the test runs.

    A block-norm transform is an ifft down the columns of the spectra
    followed by an irfft along their rows; each shape recorded is one such
    pair, checked to be paired when the test ends.
    """
    passes = {"ifft": [], "irfft": []}
    for name, shapes in passes.items():
        monkeypatch.setattr(np.fft, name, _recording(getattr(np.fft, name), shapes))
    yield passes["irfft"]
    assert passes["ifft"] == passes["irfft"]


class TestBlockNormMemo:
    def test_repeat_calls_make_one_transform(self, transforms):
        u = random_field(16, 1.0, seed=31)
        first = block_lp_norms(u, 3)
        assert block_lp_norms(u, 3) == first
        besov_value(u, 1, 3, 2)
        besov_value(u, -1, 3, 5)
        assert len(transforms) == 1

    def test_fraction_and_float_share_a_transform(self, transforms):
        u = random_field(16, 1.0, seed=32)
        exact = block_lp_norms(u, Fraction(5, 2))
        assert block_lp_norms(u, 2.5) == exact
        assert block_lp_norms(u, "5/2") == exact
        assert len(transforms) == 1

    def test_new_p_makes_a_new_transform(self, transforms):
        u = random_field(16, 1.0, seed=33)
        at2, at4 = block_lp_norms(u, 2), block_lp_norms(u, 4)
        assert len(transforms) == 2
        assert at2 != at4

    def test_equal_fields_give_equal_norms(self, transforms):
        u = random_field(16, 1.0, seed=34)
        twin = SpectralField(16, u.c.copy())
        assert block_lp_norms(twin, 3) == block_lp_norms(u, 3)
        assert len(transforms) == 2

    def test_returned_list_does_not_alias_the_memo(self):
        u = random_field(16, 1.0, seed=35)
        first = block_lp_norms(u, 3)
        expected = list(first)
        first[0] = (0, -1.0)
        first.append((99, 1.0))
        assert block_lp_norms(u, 3) == expected

    def test_p_below_one_always_raises_and_is_not_stored(self, transforms):
        u = random_field(16, 1.0, seed=36)
        for _ in range(2):
            with pytest.raises(ValueError):
                block_lp_norms(u, Fraction(1, 2))
        assert transforms == []
        assert 0.5 not in getattr(u, "_block_lp", {})
        zero = SpectralField.zeros(8)
        with pytest.raises(ValueError):
            block_lp_norms(zero, 0.5)

    def test_zero_field_needs_no_transform(self, transforms):
        zero = SpectralField.zeros(16)
        got = block_lp_norms(zero, 3)
        assert transforms == []
        assert got == all_blocks_lp_norms(zero, 3)
        assert all(lp == 0.0 for _, lp in got)

    def test_blocks_beyond_the_support_are_not_transformed(self, transforms):
        # support 10 at n = 32: |k|^2 <= 200 never reaches block 4 (256 < |k|^2)
        u = random_field(32, 1.0, seed=37, band=10)
        got = block_lp_norms(u, 3)
        assert [shape[0] for shape in transforms] == [4]
        assert len(got) == 5 and got[4] == (4, 0.0)

    @pytest.mark.parametrize("n,support,reached", [(32, 10, 4), (32, 16, 5), (16, 1, 1), (8, 3, 3)])
    def test_one_transform_of_support_width_spectra(self, transforms, n, support, reached):
        # the (reached, 2, 2n, s + 1) block spectra: irfft pads the columns past s
        u = random_field(n, 1.0, seed=38, band=support)
        block_lp_norms(u, 3)
        assert transforms == [(reached, 2, 2 * n, support + 1)]


def _in_fresh_thread(fn):
    """fn() run in a new thread, whose block-norm buffers start empty as in a fresh process."""
    out = []
    thread = threading.Thread(target=lambda: out.append(fn()))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    return out[0]


class TestBlockNormBuffers:
    def test_warm_call_allocates_no_block(self):
        # a fresh (4, 2, 64, 64) float64 samples array is 262,144 bytes and the
        # (4, 2, 64, 11) complex spectra 90,112: neither may be allocated again
        block_lp_norms(random_field(32, 1.0, seed=40, band=10), 3)
        u = random_field(32, 1.0, seed=41, band=10)
        assert u.max_mode_inf == 10
        tracemalloc.start()
        try:
            block_lp_norms(u, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 * 64 * 11 * 16

    def test_threads_give_the_serial_norms(self):
        # more threads than cores, switching often: a buffer shared between
        # threads would mix one field's samples into another's norms
        fields = [random_field(32, 1.0, seed=50 + i, band=6 + 2 * i) for i in range(4)]
        serial = [block_lp_norms(SpectralField(32, u.c), 3) for u in fields]
        results = [[] for _ in fields]

        def work(u, out):
            for _ in range(25):
                out.append(block_lp_norms(SpectralField(32, u.c), 3))

        threads = [threading.Thread(target=work, args=pair) for pair in zip(fields, results)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [[expected] * 25 for expected in serial]

    def test_growing_sizes_give_fresh_buffer_norms(self):
        # each call reuses, or grows past, the buffers the calls before it left
        for n in (8, 16, 32, 64):
            for support in range(1, n // 2 + 1):
                u = random_field(n, 1.0, seed=60, band=support)
                twin = SpectralField(n, u.c)
                assert block_lp_norms(u, 3) == _in_fresh_thread(lambda: block_lp_norms(twin, 3))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(half=st.integers(1, 32), data=st.data(), seed=st.integers(0, 7),
       gamma=st.sampled_from([0.0, 1.0, 2.5]), p=st.sampled_from([2, Fraction(5, 2), 3, 4]))
def test_support_limited_blocks_match_all_blocks(half, data, seed, gamma, p):
    # the support's diagonal mode (s, s) has |k|^2 = 2 s^2, so a skip bound
    # below 2 s^2 drops a nonzero block and fails here
    support = data.draw(st.integers(1, half))
    u = random_field(2 * half, gamma, seed, band=support)
    assert block_lp_norms(u, p) == all_blocks_lp_norms(u, p)
