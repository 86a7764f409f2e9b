"""Norm toolkit: L_p quadrature, dyadic blocks, embeddings, interpolation."""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nstorus.besov import (
    BesovParams,
    _block_masks,
    as_fraction,
    besov_from_block_lp,
    besov_norm,
    besov_value,
    block_lp_norms,
    check_embedding,
    interpolation_ratio,
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
    """The modes of each mask of _block_masks, both orientations, as sets."""
    k1a, k2a, _, _, _, _, _ = _lattice(n)
    blocks = []
    for mask in _block_masks(n):
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


class TestEmbedding:
    def test_global_example_embeds(self):
        s, p, q, r = Fraction(4, 3), Fraction(5, 2), Fraction(3), Fraction(3)
        cert = check_embedding((-s + 2, p, q), (Fraction(2) / p + Fraction(2) / r - 1, p, r))
        assert cert.embeds

    def test_reflexive(self):
        assert check_embedding((0, 2, 2), (0, 2, 2)).embeds

    def test_regularity_increase_fails(self):
        cert = check_embedding((0, 2, 2), (1, 2, 2))
        assert not cert.embeds
        assert "sobolev-index" in cert.binding

    def test_certificate_json(self):
        data = json.loads(check_embedding((1, 2, 2), (0, 2, 3)).to_json())
        assert data["embeds"] is True
        assert len(data["checks"]) == 3


class TestInterpolation:
    def test_single_block_field_ratio_one(self):
        u = random_field(32, 0.0, seed=5, band=1)
        rep = interpolation_ratio(u, 0, 2, 0.3, 3, 4)
        assert rep.defined
        assert abs(rep.ratio - 1.0) < 1e-12

    def test_zero_field_flagged(self):
        rep = interpolation_ratio(SpectralField.zeros(8), 0, 2, 0.5, 2, 2)
        assert not rep.defined
        assert rep.ratio is None

    def test_q2_is_cauchy_schwarz(self):
        for seed in range(10):
            u = random_field(32, 1.5, seed=seed)
            rep = interpolation_ratio(u, 0, 2, 0.5, 2, 2)
            assert rep.ratio <= 1.0 + 1e-10

    def test_shared_pq_endpoints_are_hoelder_exact(self):
        for seed, (p, q, th) in enumerate([(3, 3, 0.25), (2, 5, 0.7), (4, 2, 0.5)]):
            u = random_field(16, 1.0, seed=40 + seed)
            rep = interpolation_ratio(u, -1, 1.5, th, p, q)
            assert rep.ratio <= 1.0 + 1e-10

    def test_theta_out_of_range(self):
        with pytest.raises(ValueError):
            interpolation_ratio(SINGLE, 0, 1, 1.5, 2, 2)

    def test_q_below_one_rejected_like_besov_norm(self):
        u = random_field(16, 1.0, seed=41)
        for value in (lambda: besov_norm(u, 0, 2, "1/2"),
                      lambda: besov_value(u, 0, 2, "1/2"),
                      lambda: interpolation_ratio(u, 0, 1, 0.5, 2, "1/2")):
            with pytest.raises(ValueError, match="q must be >= 1"):
                value()


def test_block_lp_reuse_matches_direct():
    u = random_field(16, 1.0, seed=30)
    blocks = block_lp_norms(u, 3)
    direct = besov_value(u, Fraction(1, 2), 3, 4)
    assert abs(besov_from_block_lp(blocks, 0.5, 4) - direct) < 1e-14


def all_blocks_lp_norms(u, p):
    """Every dyadic block through one batched irfft2, with no memo and no skip."""
    m = 2 * u.n
    spec = u.full_coefficient_arrays(m, _block_masks(u.n))
    values = np.fft.irfft2(spec, s=(m, m), norm="forward")
    mag = np.sqrt(values[:, 0] ** 2 + values[:, 1] ** 2)
    pf = float(p)
    lp = ((2.0 * np.pi / m) ** 2 * np.sum(mag**pf, axis=(-2, -1))) ** (1.0 / pf)
    return [(blk, float(v)) for blk, v in enumerate(lp)]


@pytest.fixture
def transforms(monkeypatch):
    """The input shape of each irfft2 call made while the test runs."""
    calls = []
    irfft2 = np.fft.irfft2

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return irfft2(*args, **kwargs)

    monkeypatch.setattr(np.fft, "irfft2", counting)
    return calls


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


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(half=st.integers(1, 32), data=st.data(), seed=st.integers(0, 7),
       gamma=st.sampled_from([0.0, 1.0, 2.5]), p=st.sampled_from([2, Fraction(5, 2), 3, 4]))
def test_support_limited_blocks_match_all_blocks(half, data, seed, gamma, p):
    # the support's diagonal mode (s, s) has |k|^2 = 2 s^2, so a skip bound
    # below 2 s^2 drops a nonzero block and fails here
    support = data.draw(st.integers(1, half))
    u = random_field(2 * half, gamma, seed, band=support)
    assert block_lp_norms(u, p) == all_blocks_lp_norms(u, p)
