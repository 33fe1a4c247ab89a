"""Two-mode Gaussian invariants, entanglement measures and extremal families."""

import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from epe import gaussian, sampling
from epe.errors import DomainError, InvariantViolation, UnphysicalCovarianceError
from epe.sampling import random_covariance
import oracles
from test_sampling import local_beam_splitter_local

VACUUM = gaussian.StandardFormCM(1.0, 1.0, 0.0, 0.0)
TMSV3 = gaussian.StandardFormCM(3.0, 3.0, np.sqrt(8.0), -np.sqrt(8.0))
THERMAL3 = gaussian.StandardFormCM(3.0, 3.0, 0.0, 0.0)


def assert_sf_close(got, want, tol=1e-10):
    assert got.a == pytest.approx(want.a, abs=tol)
    assert got.b == pytest.approx(want.b, abs=tol)
    assert got.c_plus == pytest.approx(want.c_plus, abs=tol)
    assert got.c_minus == pytest.approx(want.c_minus, abs=tol)


def random_sf(seed):
    """Physical standard form with a haphazard spread of parameters."""
    rng = np.random.default_rng(seed)
    while True:
        a = 1.0 + rng.uniform(0.0, 3.0)
        b = 1.0 + rng.uniform(0.0, 3.0)
        cap = np.sqrt(a * b)
        cp = rng.uniform(-cap, cap) * 0.95
        cm = rng.uniform(-abs(cp), abs(cp)) if cp != 0.0 else 0.0
        sf = gaussian.StandardFormCM(a, b, cp, cm)
        if gaussian.is_physical(sf):
            return sf


class TestInvariants:
    def test_vacuum(self):
        assert np.allclose(oracles.expand(VACUUM), np.eye(4))
        assert gaussian.seralian(VACUUM) == pytest.approx(2.0)
        assert gaussian.det_sigma(VACUUM) == pytest.approx(1.0)

    def test_pure_squeezed(self):
        assert gaussian.seralian(TMSV3) == pytest.approx(2.0, abs=1e-12)
        assert gaussian.det_sigma(TMSV3) == pytest.approx(1.0, abs=1e-12)

    def test_thermal(self):
        assert gaussian.seralian(THERMAL3) == pytest.approx(18.0)
        assert gaussian.det_sigma(THERMAL3) == pytest.approx(81.0)

    def test_expand_layout(self):
        sf = gaussian.StandardFormCM(2.0, 1.5, 0.7, -0.3)
        m = oracles.expand(sf)
        assert np.array_equal(m, m.T)
        assert m[0, 2] == 0.7 and m[1, 3] == -0.3 and m[0, 1] == 0.0

    @given(st.integers(0, 100_000))
    @settings(max_examples=100, deadline=None)
    def test_spectrum_identities(self, seed):
        sf = random_sf(seed)
        nu_m, nu_p = gaussian.symplectic_eigenvalues(sf)
        assert nu_m * nu_p == pytest.approx(np.sqrt(gaussian.det_sigma(sf)), abs=1e-10)
        assert nu_m**2 + nu_p**2 == pytest.approx(
            gaussian.seralian(sf), abs=1e-10
        )
        # uncertainty relation in invariant form
        assert gaussian.seralian(sf) <= 1.0 + gaussian.det_sigma(sf) + 1e-10


class TestSymplecticSpectrum:
    def test_spot_values(self):
        spec = gaussian.symplectic_eigenvalues(VACUUM)
        assert spec == (1.0, 1.0) and all(type(nu) is float for nu in spec)
        assert gaussian.symplectic_eigenvalues(THERMAL3) == pytest.approx((3.0, 3.0))
        assert gaussian.symplectic_eigenvalues(TMSV3) == pytest.approx((1.0, 1.0), abs=1e-12)

    def test_invariants_with_no_real_spectrum_raise(self):
        # Delta^2 - 4 Det sigma = 1 - 4 < 0
        with pytest.raises(UnphysicalCovarianceError, match="no real spectrum"):
            gaussian.nu_from_invariants(1.0, 1.0)

    @given(st.integers(0, 100_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_matrix_route(self, seed):
        # closed form from invariants versus |eig(i Omega sigma)|
        sf = random_sf(seed)
        spec = gaussian.symplectic_eigenvalues(sf)
        ref = oracles.cm_symplectic_eigenvalues(oracles.expand(sf))
        assert spec == pytest.approx(ref, abs=1e-9)

    def test_pure_states_have_unit_nu_minus(self):
        # Delta^2 - 4 Det sigma cancels to roundoff for pure states; E = 2.224
        # and E = 0.8723794311493195 gave nu_- about 1 - 1.5e-8 through it
        energies = np.r_[np.arange(3001) * 0.001, 0.8723794311493195, 1000.0]
        for E in energies:
            sf = gaussian.two_mode_squeezed_vacuum(E)
            assert gaussian.is_physical(sf)
            assert abs(gaussian.symplectic_eigenvalues(sf)[0] - 1.0) <= 1e-10

    def test_unphysical_rejected(self):
        sf = gaussian.StandardFormCM(1.0, 1.0, 0.9, 0.9)  # sigma >= 0 but nu_- < 1
        assert not gaussian.is_physical(sf)
        with pytest.raises(UnphysicalCovarianceError):
            gaussian.purity(sf)

    def test_require_physical_names_the_first_failing_row(self):
        # (2, 2, 3, 3) fails a b >= c+-^2 with nu_- = 1, so the message names both conditions
        rows = np.tile([2.0, 2.0, 0.0, 0.0], (4096, 1))
        rows[[17, 40]] = [[2.0, 2.0, 3.0, 3.0], [1.0, 1.0, 0.5, 0.5]]
        with pytest.raises(UnphysicalCovarianceError) as err:
            gaussian.require_physical(_stacked(rows))
        assert str(err.value) == (
            "standard-form row 17 (a, b, c+, c-) = (2.0, 2.0, 3.0, 3.0) is not physical "
            "(needs a b >= c+-^2 and nu_- >= 1)"
        )
        with pytest.raises(UnphysicalCovarianceError, match=r"^standard-form row \(a, b, c"):
            gaussian.require_physical(gaussian.StandardFormCM(1.0, 1.0, 0.9, 0.9))
        assert gaussian.require_physical(TMSV3) is TMSV3


class TestPurityEnergy:
    def test_vacuum(self):
        assert gaussian.purity(VACUUM) == 1.0
        assert gaussian.energy(VACUUM) == 0.0

    def test_tmsv(self):
        assert gaussian.purity(TMSV3) == pytest.approx(1.0, abs=1e-12)
        assert gaussian.energy(TMSV3) == pytest.approx(2.0)

    def test_maximally_mixed(self):
        sf = oracles.maximally_mixed(1.0)
        assert gaussian.purity(sf) == pytest.approx(0.25)
        assert gaussian.energy(sf) == pytest.approx(1.0)

    def test_local_photon_numbers(self):
        n1, n2 = oracles.local_photon_numbers(oracles.thermal_product(1.0, 0.25))
        assert (n1, n2) == pytest.approx((1.0, 0.25))

    def test_check_false_skips_the_physicality_check(self):
        # nu_- < 1: every measure refuses it by default and evaluates it when told not to check
        bad = gaussian.StandardFormCM(1.0, 1.0, 0.5, 0.5)
        rows = _stacked([[sf.a, sf.b, sf.c_plus, sf.c_minus] for sf in (TMSV3, THERMAL3, VACUUM)])
        for measure in (gaussian.energy, gaussian.purity, gaussian.ppt_nu_minus,
                        gaussian.log_negativity, gaussian.negativity):
            with pytest.raises(UnphysicalCovarianceError):
                measure(bad)
            assert np.isfinite(measure(bad, check=False))
            assert np.array_equal(measure(rows, check=False), measure(rows))


class TestPPT:
    def test_thermal_separable(self):
        assert gaussian.ppt_nu_minus(THERMAL3) == pytest.approx(3.0)
        assert gaussian.log_negativity(THERMAL3) == 0.0
        assert oracles.is_separable(THERMAL3)

    def test_tmsv_closed_form(self):
        # nu~ = a - sqrt(a^2 - 1) for the pure symmetric family
        assert gaussian.ppt_nu_minus(TMSV3) == pytest.approx(0.1715728752538097, abs=1e-12)
        assert gaussian.log_negativity(TMSV3) == pytest.approx(1.7627471740390872, abs=1e-12)
        assert not oracles.is_separable(TMSV3)

    def test_vacuum(self):
        assert gaussian.ppt_nu_minus(VACUUM) == pytest.approx(1.0)
        assert gaussian.log_negativity(VACUUM) == 0.0

    def test_log_negativity_at_unit_nu_reads_plus_zero(self):
        # nu~_- = 1 exactly at E = 0, where -ln nu~_- is -0.0
        sf = gaussian.two_mode_squeezed_vacuum(np.array([0.0, 1.0]))
        assert gaussian.ppt_nu_minus(sf)[0] == 1.0
        stacked = gaussian.log_negativity(sf)
        scalar = gaussian.log_negativity(gaussian.two_mode_squeezed_vacuum(0.0))
        for value in (stacked[0], scalar):
            assert value == 0.0 and not np.signbit(value)

    def test_negativity_relation(self):
        nu = gaussian.ppt_nu_minus(TMSV3)
        assert gaussian.negativity(TMSV3) == pytest.approx((1.0 - nu) / (2.0 * nu), abs=1e-12)

    @given(st.integers(0, 100_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_matrix_route(self, seed):
        sf = random_sf(seed)
        ref = oracles.cm_ppt_nu_minus(oracles.expand(sf))
        assert gaussian.ppt_nu_minus(sf) == pytest.approx(ref, abs=1e-9)


class TestFamilies:
    def test_tmsv_constructor(self):
        assert gaussian.two_mode_squeezed_vacuum(0.0) == VACUUM
        assert_sf_close(gaussian.two_mode_squeezed_vacuum(2.0), TMSV3)
        assert gaussian.log_negativity(
            gaussian.two_mode_squeezed_vacuum(1.0)
        ) == pytest.approx(-np.log(2.0 - np.sqrt(3.0)), abs=1e-12)
        with pytest.raises(DomainError):
            gaussian.two_mode_squeezed_vacuum(-0.5)

    def test_tmsv_curve_strictly_increasing(self):
        E = np.linspace(0.0, 2.0, 201)
        vals = [gaussian.log_negativity(gaussian.two_mode_squeezed_vacuum(e)) for e in E]
        assert np.all(np.diff(vals) > 0.0)

    def test_thermal_product(self):
        assert oracles.thermal_product(0.0, 0.0) == VACUUM
        sf = oracles.thermal_product(1.0, 1.0)
        assert sf == THERMAL3
        assert gaussian.purity(sf) == pytest.approx(1.0 / 9.0)
        assert gaussian.energy(sf) == pytest.approx(2.0)
        # saturates the separable purity floor 1/(E+1)^2
        assert gaussian.purity(sf) == pytest.approx(1.0 / (gaussian.energy(sf) + 1.0) ** 2)
        sf = oracles.thermal_product(1.0, 0.0)
        assert (gaussian.purity(sf), gaussian.energy(sf)) == pytest.approx((1.0 / 3.0, 1.0))
        with pytest.raises(DomainError):
            oracles.thermal_product(-0.1, 0.0)

    def test_local_squeeze(self):
        assert np.allclose(oracles.local_squeeze(TMSV3, 0.0), oracles.expand(TMSV3))
        r = 0.5 * np.arccosh(2.0)
        squeezed = oracles.local_squeeze(TMSV3, r)
        assert oracles.cm_energy(squeezed) == pytest.approx(5.0, abs=1e-12)
        squeezed = oracles.local_squeeze(VACUUM, 1.0)
        assert oracles.cm_energy(squeezed) == pytest.approx(np.cosh(2.0) - 1.0, abs=1e-12)
        assert oracles.cm_purity(squeezed) == pytest.approx(1.0, abs=1e-10)
        assert oracles.cm_ppt_nu_minus(squeezed) >= 1.0 - 1e-10

    @given(st.integers(0, 100_000), st.floats(-1.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_local_squeeze_invariances(self, seed, r):
        sf = random_sf(seed)
        squeezed = oracles.local_squeeze(sf, r)
        back = gaussian.reduce_to_standard_form(squeezed)
        assert gaussian.purity(back) == pytest.approx(gaussian.purity(sf), abs=1e-9)
        assert gaussian.ppt_nu_minus(back) == pytest.approx(gaussian.ppt_nu_minus(sf), abs=1e-9)
        spec0 = gaussian.symplectic_eigenvalues(sf)
        assert gaussian.symplectic_eigenvalues(back) == pytest.approx(spec0, abs=1e-9)


class TestGmems:
    def test_pure_limit_is_tmsv(self):
        assert_sf_close(gaussian.gmems(2.0, 1.0), TMSV3)

    def test_separability_threshold(self):
        sf = gaussian.gmems(1.0, 1.0 / 3.0)
        assert gaussian.ppt_nu_minus(sf) == pytest.approx(1.0, abs=1e-12)

    def test_band_floor_is_maximally_mixed(self):
        assert_sf_close(gaussian.gmems(1.0, 0.25), oracles.maximally_mixed(1.0))

    def test_achieves_requested_coordinates(self):
        for E, P in [(0.5, 0.9), (1.0, 0.5), (2.0, 0.7)]:
            sf = gaussian.gmems(E, P)
            assert gaussian.energy(sf) == pytest.approx(E, abs=1e-12)
            assert gaussian.purity(sf) == pytest.approx(P, abs=1e-12)
            assert gaussian.ppt_seralian(sf) == pytest.approx(
                4.0 * (E + 1.0) ** 2 - 2.0 / P, abs=1e-9
            )

    def test_domain(self):
        with pytest.raises(DomainError):
            gaussian.gmems(1.0, 0.2)  # below 1/(E+1)^2
        with pytest.raises(DomainError):
            gaussian.gmems(1.0, 1.2)
        with pytest.raises(DomainError):
            gaussian.gmems(-1.0, 0.5)

    @pytest.mark.parametrize("E,P", [(1.0, 0.5), (2.0, 0.9)])
    def test_maximality(self, E, P):
        bound = gaussian.log_negativity(gaussian.gmems(E, P))
        dt_bound = 4.0 * (E + 1.0) ** 2 - 2.0 / P
        rng = np.random.default_rng(77)
        for _ in range(2000):
            sf = oracles.random_standard_form_at(E, P, rng)
            assert gaussian.energy(sf) == pytest.approx(E, abs=1e-9)
            assert gaussian.purity(sf) == pytest.approx(P, abs=1e-9)
            assert gaussian.ppt_seralian(sf) <= dt_bound + 1e-9
            assert gaussian.log_negativity(sf) <= bound + 1e-9

    def test_ppt_monotonicity_in_seralian(self):
        # finite differences of nu~^2 in the PPT seralian at fixed Det sigma
        rng = np.random.default_rng(5)
        for _ in range(1000):
            sf = random_sf(rng.integers(1 << 31))
            det = gaussian.det_sigma(sf)
            dt = gaussian.ppt_seralian(sf)
            h = 1e-6 * max(1.0, dt)

            def nu2(delta):
                return (delta - np.sqrt(max(delta**2 - 4.0 * det, 0.0))) / 2.0

            assert nu2(dt + h) - nu2(dt - h) < 0.0


class TestGlems:
    def test_band_edges(self):
        # upper edge of the separable range: nu~ exactly 1
        sf = gaussian.glems(1.0, 1.0 / np.sqrt(7.0))
        assert gaussian.ppt_nu_minus(sf) == pytest.approx(1.0, abs=1e-10)
        # lower edge is separable with nu~ = sqrt(3)
        sf = gaussian.glems(1.0, 1.0 / 3.0)
        assert gaussian.ppt_nu_minus(sf) == pytest.approx(np.sqrt(3.0), abs=1e-10)
        assert oracles.is_separable(sf)

    def test_spectrum_is_pinned(self):
        for E, P in [(0.5, 0.8), (1.0, 0.6), (2.0, 0.35)]:
            sf = gaussian.glems(E, P)
            assert gaussian.symplectic_eigenvalues(sf) == pytest.approx((1.0, 1.0 / P), abs=1e-10)
            assert gaussian.energy(sf) == pytest.approx(E, abs=1e-12)
            assert gaussian.ppt_seralian(sf) == pytest.approx(
                4.0 * (E + 1.0) ** 2 - (1.0 + 1.0 / P**2), abs=1e-8
            )

    def test_pure_limit_is_tmsv(self):
        assert_sf_close(gaussian.glems(2.0, 1.0), TMSV3, tol=1e-9)

    def test_physical_up_to_purity_one(self):
        # every curve E = 0.01..3 on a 0.01 purity step ending at P = 1; near
        # P = 1 the discriminant form lost half the digits of c+ +- c-
        for E in np.arange(1, 301) * 0.01:
            lo = 1.0 / (2.0 * E + 1.0)
            for P in np.append(np.arange(np.ceil(lo * 100.0) / 100.0, 1.0, 0.01), 1.0):
                sf = gaussian.glems(E, P)
                spec = gaussian.symplectic_eigenvalues(sf)
                assert spec == pytest.approx((1.0, 1.0 / P), abs=1e-10)
        assert_sf_close(gaussian.glems(0.01, 1.0), gaussian.two_mode_squeezed_vacuum(0.01))

    def test_separable_band(self):
        E = 1.0
        lo = 1.0 / (2.0 * E + 1.0)
        hi = 1.0 / np.sqrt(2.0 * E**2 + 4.0 * E + 1.0)
        for P in np.linspace(lo, hi, 9):
            assert oracles.is_separable(gaussian.glems(E, P))
        assert not oracles.is_separable(gaussian.glems(E, hi + 0.01))

    def test_domain(self):
        with pytest.raises(DomainError):
            gaussian.glems(1.0, 0.30)  # below 1/(2E+1)
        with pytest.raises(DomainError):
            gaussian.glems(-1.0, 0.5)


class TestSeparabilityBand:
    def test_spot_values(self):
        assert gaussian.separability_band(1.0) == pytest.approx((0.25, 1.0 / 3.0))
        assert gaussian.separability_band(0.0) == (1.0, 1.0)
        assert gaussian.band_width(0.0) == 0.0

    def test_golden_ratio_argmax(self):
        res = minimize_scalar(
            lambda e: -gaussian.band_width(e), bounds=(0.01, 20.0), method="bounded",
            options={"xatol": 1e-10},
        )
        assert res.x == pytest.approx((1.0 + np.sqrt(5.0)) / 2.0, abs=1e-6)

    def test_width_vanishes_at_extremes(self):
        assert gaussian.band_width(1e-9) == pytest.approx(0.0, abs=1e-8)
        assert gaussian.band_width(1e6) == pytest.approx(0.0, abs=1e-5)

    def test_domain(self):
        with pytest.raises(DomainError):
            gaussian.separability_band(-0.1)


class TestStandardFormReduction:
    def test_standard_input_unchanged(self):
        sf = gaussian.StandardFormCM(2.0, 1.5, 0.7, -0.3)
        back = gaussian.reduce_to_standard_form(oracles.expand(sf))
        assert_sf_close(back, sf)

    def test_sign_canonicalization(self):
        sf = gaussian.StandardFormCM(2.0, 1.5, -0.7, 0.3)
        back = gaussian.reduce_to_standard_form(oracles.expand(sf))
        assert (back.c_plus, back.c_minus) == pytest.approx((0.7, -0.3), abs=1e-10)
        assert back.c_plus >= abs(back.c_minus) >= 0.0

    def test_identity_invariant(self):
        back = gaussian.reduce_to_standard_form(2.5 * np.eye(4))
        assert_sf_close(back, gaussian.StandardFormCM(2.5, 2.5, 0.0, 0.0))

    def test_known_rotation_roundtrip(self):
        theta = 0.77
        c, s = np.cos(theta), np.sin(theta)
        R = np.eye(4)
        R[:2, :2] = [[c, s], [-s, c]]
        rotated = R @ oracles.expand(TMSV3) @ R.T
        back = gaussian.reduce_to_standard_form(rotated)
        assert_sf_close(back, TMSV3, tol=1e-9)

    @given(st.integers(0, 100_000))
    @settings(max_examples=50, deadline=None)
    def test_invariants_preserved(self, seed):
        rng = np.random.default_rng(seed)
        cm = random_covariance(rng)
        sf = gaussian.reduce_to_standard_form(cm)
        da, db, dg, ds, delta = oracles.cm_block_invariants(cm)
        assert sf.a**2 == pytest.approx(da, rel=1e-9, abs=1e-9)
        assert sf.b**2 == pytest.approx(db, rel=1e-9, abs=1e-9)
        assert sf.c_plus * sf.c_minus == pytest.approx(dg, rel=1e-9, abs=1e-9)
        assert gaussian.det_sigma(sf) == pytest.approx(ds, rel=1e-9, abs=1e-9)
        assert gaussian.seralian(sf) == pytest.approx(delta, rel=1e-9, abs=1e-9)
        assert gaussian.purity(sf) == pytest.approx(oracles.cm_purity(cm), rel=1e-9)
        assert gaussian.energy(sf) >= -1e-12
        assert gaussian.ppt_nu_minus(sf) == pytest.approx(oracles.cm_ppt_nu_minus(cm), abs=1e-9)

    def test_rejects_unphysical(self):
        with pytest.raises(UnphysicalCovarianceError):
            gaussian.reduce_to_standard_form(0.5 * np.eye(4))
        with pytest.raises(UnphysicalCovarianceError):
            bad = np.eye(4)
            bad[0, 1] = 0.3  # asymmetric
            gaussian.reduce_to_standard_form(bad)

    @given(
        st.integers(0, 2**64 - 1),
        st.integers(1, 64),
        st.sampled_from([(0.0, 2.0), (1.0, 2.0), (3.0, 3.5), (0.0, 0.05)]),
    )
    @settings(max_examples=30, deadline=None)
    def test_stack_matches_scalar_calls_bit_for_bit(self, seed, count, window):
        rotated = np.eye(4)
        rotated[:2, :2] = [[np.cos(0.77), np.sin(0.77)], [-np.sin(0.77), np.cos(0.77)]]
        special = [
            oracles.expand(gaussian.StandardFormCM(2.0, 1.5, -0.7, 0.3)),  # sign flip
            2.5 * np.eye(4),
            rotated @ oracles.expand(TMSV3) @ rotated.T,
        ]
        sampled = oracles.sampled_covariances(seed, 0, count, window)
        # sampled candidates carry no right local symplectic; give them random local frames
        rng = np.random.default_rng(seed)
        squeezes = rng.uniform(-1.0, 1.0, (count, 2))
        angles = rng.uniform(0.0, 2.0 * np.pi, (count, 2))
        framed = [_locally_transformed(cm, r[0], t[0], r[1], t[1])
                  for cm, r, t in zip(sampled, squeezes, angles)]
        cms = np.concatenate([sampled, framed, special])
        params = gaussian.reduce_to_standard_form(cms)
        assert params.shape == (2 * count + 3, 4)
        for cm, row in zip(cms, params):
            sf = gaussian.reduce_to_standard_form(cm)
            assert isinstance(sf, gaussian.StandardFormCM)
            assert np.array_equal([sf.a, sf.b, sf.c_plus, sf.c_minus], row)

    @given(
        st.floats(0.5, 1.5).filter(lambda nu: abs(nu - 1.0) > 1e-8),
        st.floats(1.0, 3.0),
        st.lists(st.floats(0.0, 1.0), min_size=13, max_size=13),
    )
    @settings(max_examples=60, deadline=None)
    def test_physicality_check_matches_the_eigen_oracle(self, nu_minus, spread, u):
        # S^T diag(nu-, nu-, nu+, nu+) S has symplectic eigenvalues nu-, nu+
        S = local_beam_splitter_local(np.array([u]), 0.8)[0]
        cm = S.T @ np.diag([nu_minus, nu_minus, nu_minus * spread, nu_minus * spread]) @ S
        cm = (cm + cm.T) / 2.0
        assert oracles.cm_is_physical(cm) == (nu_minus > 1.0)
        if nu_minus > 1.0:
            gaussian.reduce_to_standard_form(np.stack([cm, np.eye(4)]))
        else:
            with pytest.raises(UnphysicalCovarianceError, match="nu_- >= 1"):
                gaussian.reduce_to_standard_form(np.stack([cm, np.eye(4)]))

    def test_indefinite_matrix_fails_the_positivity_check(self):
        cm = oracles.expand(gaussian.StandardFormCM(1.0, 1.0, 2.0, 0.0))
        assert not oracles.cm_is_physical(cm)
        with pytest.raises(UnphysicalCovarianceError, match="positive semidefinite"):
            gaussian.reduce_to_standard_form(cm)

    @given(st.integers(0, 9))
    @settings(max_examples=10, deadline=None)
    def test_stack_with_one_bad_matrix_raises(self, k):
        cms = oracles.sampled_covariances(3, 0, 10, sampling.DEFAULT_ENERGY_WINDOW)
        unphysical = cms.copy()
        unphysical[k] = 0.5 * np.eye(4)
        asymmetric = cms.copy()
        asymmetric[k, 0, 1] += 0.3
        for bad in (unphysical, asymmetric):
            with pytest.raises(UnphysicalCovarianceError):
                gaussian.reduce_to_standard_form(bad)
        with pytest.raises(UnphysicalCovarianceError):
            gaussian.reduce_to_standard_form(cms.reshape(2, 5, 4, 4))


def _rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, s], [-s, c]])


def _locally_transformed(cm, r1, theta1, r2, theta2):
    """A CM (or expand(sf) of a StandardFormCM) under local squeezes e^(+-r)
    followed by local rotations."""
    if isinstance(cm, gaussian.StandardFormCM):
        cm = oracles.expand(cm)
    S = np.zeros((4, 4))
    S[:2, :2] = _rotation(theta1) @ np.diag([np.exp(r1), np.exp(-r1)])
    S[2:, 2:] = _rotation(theta2) @ np.diag([np.exp(r2), np.exp(-r2)])
    return S @ cm @ S.T


# (matrix, its standard form)
ADVERSARIAL = [
    # product states: gamma = 0, so c+- = 0 with no 0/0
    (oracles.expand(oracles.thermal_product(0.5, 2.0)), (2.0, 5.0, 0.0, 0.0)),
    (_locally_transformed(oracles.thermal_product(1.0, 0.0), 0.9, 0.3, -1.2, 2.0),
     (3.0, 1.0, 0.0, 0.0)),
    # thermal 2.5 I, where the two singular values of gamma coincide
    (2.5 * np.eye(4), (2.5, 2.5, 0.0, 0.0)),
    # the two-mode squeezed vacuum, c- = -c+, plain and rotated
    (oracles.expand(TMSV3), (3.0, 3.0, np.sqrt(8.0), -np.sqrt(8.0))),
    (_locally_transformed(TMSV3, 0.0, 0.77, 0.0, 0.0), (3.0, 3.0, np.sqrt(8.0), -np.sqrt(8.0))),
    # local blocks with x / z = e^(4r) = 1e8, whose determinants cancel
    # products of 1e4-sized entries
    (_locally_transformed(gaussian.StandardFormCM(2.0, 1.5, 0.7, -0.3), np.log(1e8) / 4, 0.4,
                          -np.log(1e8) / 4, 1.1), (2.0, 1.5, 0.7, -0.3)),
    (_locally_transformed(TMSV3, np.log(1e8) / 4, 0.0, np.log(1e8) / 4, 0.0),
     (3.0, 3.0, np.sqrt(8.0), -np.sqrt(8.0))),
]


def local_roundoff(cm):
    """eps sum_blocks (x z + y^2) / (2 sqrt(x z - y^2)): the first-order
    roundoff of sqrt(Det alpha) + sqrt(Det beta) from the blocks' entries."""
    total = 0.0
    for block in (cm[:2, :2], cm[2:, 2:]):
        x, y, z = block[0, 0], block[0, 1], block[1, 1]
        total += (x * z + y * y) / (2.0 * np.sqrt(x * z - y * y))
    return gaussian.EPS * total


class TestClosedFormReduction:
    @pytest.mark.parametrize("case", range(len(ADVERSARIAL)))
    def test_adversarial_inputs_alone(self, case):
        cm, want = ADVERSARIAL[case]
        sf = gaussian.reduce_to_standard_form(cm)
        got = [sf.a, sf.b, sf.c_plus, sf.c_minus]
        assert np.all(np.isfinite(got))
        assert np.allclose(got, want, rtol=0.0, atol=4.0 * local_roundoff(cm))
        assert sf.c_plus >= abs(sf.c_minus)

    def test_adversarial_inputs_stacked_match_alone_bit_for_bit(self):
        cms = np.stack([cm for cm, _ in ADVERSARIAL])
        params = gaussian.reduce_to_standard_form(cms)
        for cm, row in zip(cms, params):
            sf = gaussian.reduce_to_standard_form(cm)
            assert np.array_equal([sf.a, sf.b, sf.c_plus, sf.c_minus], row)
        # a product state keeps c+- = 0 exactly, in a stack as alone
        assert params[0, 2] == params[0, 3] == 0.0
        assert params[2, 2] == params[2, 3] == 0.0

    def test_local_symplectic_reaches_the_williamson_form(self):
        x, y, z = 3.0e4, -70.0, 0.2
        s11, s12, s22, a = gaussian._single_mode_williamson(x, y, y, z)
        S = np.array([[s11, s12], [s12, s22]])
        block = np.array([[x, y], [y, z]])
        assert a == np.sqrt(x * z - y * y)
        assert np.linalg.det(S) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(S @ block @ S.T, a * np.eye(2), rtol=0.0, atol=1e-9 * a)

    def test_negative_definite_local_block_raises(self):
        # Det alpha = 2 > 0, but both of its eigenvalues are negative
        with pytest.raises(UnphysicalCovarianceError, match="local covariance block"):
            gaussian._single_mode_williamson(np.array([-2.0]), np.array([0.0]),
                                             np.array([0.0]), np.array([-1.0]))
        cm = np.diag([-2.0, -1.0, 1.0, 1.0])
        with pytest.raises(UnphysicalCovarianceError):
            gaussian.reduce_to_standard_form(cm)
        with pytest.raises(UnphysicalCovarianceError):
            gaussian.reduce_to_standard_form(np.stack([np.eye(4), cm]))

    def test_no_lapack_call_on_a_two_by_two_block_outside_the_check(self, monkeypatch):
        sampled = oracles.sampled_covariances(5, 0, 32, sampling.DEFAULT_ENERGY_WINDOW)
        cms = np.concatenate([sampled, np.stack([cm for cm, _ in ADVERSARIAL])])
        want = gaussian.reduce_to_standard_form(cms)
        calls = set()
        for name in ("det", "eigvalsh", "eigh", "eig", "eigvals", "svd", "inv", "solve"):
            def spy(m, *args, _real=getattr(np.linalg, name), _name=name, **kwargs):
                calls.add((_name, np.shape(m)[-2:], sys._getframe(1).f_code.co_name))
                return _real(m, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, spy)
        assert np.array_equal(gaussian.reduce_to_standard_form(cms), want)
        # the invariant check keeps LAPACK's determinants, sharing no
        # arithmetic with the closed-form route it checks
        assert {call for call in calls if call[1] != (4, 4)} == {
            ("det", (2, 2), "_block_invariants")
        }
        assert {call[0] for call in calls} == {"det", "eigvalsh"}

    def test_invariant_failure_on_the_public_path(self, monkeypatch):
        # the public reduction checks its rows against LAPACK's Det sigma and Delta
        cms = oracles.sampled_covariances(7, 0, 16, sampling.DEFAULT_ENERGY_WINDOW)
        real = gaussian._block_invariants

        def shifted_delta(cm):
            *dets, delta = real(cm)
            return (*dets, delta + 1.0)

        monkeypatch.setattr(gaussian, "_block_invariants", shifted_delta)
        with pytest.raises(InvariantViolation,
                           match="^standard-form reduction failed to preserve invariants$"):
            gaussian.reduce_to_standard_form(cms)


class TestScaleAwareChecks:
    def test_symmetry_tolerance_is_absolute_at_unit_scale(self):
        cm = np.eye(4)
        cm[0, 1] = 5e-13
        oracles.cm_validate(cm)
        cm[0, 1] = 2e-12
        with pytest.raises(UnphysicalCovarianceError, match="not symmetric"):
            oracles.cm_validate(cm)

    def test_symmetry_tolerance_follows_the_diagonal(self):
        # at diagonal 1e6 the construction's roundoff allows 6 eps 1e6 = 1.3e-9
        cm = 1e6 * np.eye(4)
        cm[0, 1] = 1e-9
        oracles.cm_validate(cm)
        gaussian.reduce_to_standard_form(cm[None])
        cm[0, 1] = 2e-9
        with pytest.raises(UnphysicalCovarianceError, match="not symmetric"):
            gaussian.reduce_to_standard_form(cm[None])
        # a small entry between large diagonal ones gets the same allowance
        cm = np.diag([1e6, 1e6, 1.0, 1.0])
        cm[2, 3] = 2e-12
        with pytest.raises(UnphysicalCovarianceError, match="not symmetric"):
            oracles.cm_validate(cm)

    def test_eigenvalue_floor_is_absolute_at_unit_scale(self):
        cm = np.eye(4)
        cm[0, 0] = -2e-10
        with pytest.raises(UnphysicalCovarianceError, match="positive semidefinite"):
            gaussian.reduce_to_standard_form(cm[None])

    @pytest.mark.parametrize("window", [(20.0, 40.0), (50.0, 100.0)])
    def test_wide_window_samples_reduce(self, window):
        cms = oracles.sampled_covariances(7, 0, 512, window)
        params = gaussian.reduce_to_standard_form(cms)
        assert all(oracles.cm_is_physical(cm) for cm in cms)
        energy = (params[:, 0] + params[:, 1]) / 2.0 - 1.0
        assert np.all((window[0] * (1.0 - 1e-12) <= energy) & (energy <= window[1] * (1.0 + 1e-12)))


    def test_row_tolerance_follows_the_scale(self):
        # nu_-^2 = a^2 - c^2 of a symmetric row with c+ = -c- = c
        def row(E, deficit):
            a = E + 1.0
            c = np.sqrt(a * a - (1.0 - deficit) ** 2)
            return gaussian.StandardFormCM(a, a, c, -c)

        # at unit scale the absolute tolerance 1e-10 holds
        assert gaussian.is_physical(row(1.0, 5e-11))
        assert not gaussian.is_physical(row(1.0, 2e-10))
        # at E = 1e4, a^2 - c^2 carries ROW_ROUNDOFF eps 4 a^2 ~ 4e-7 of roundoff
        assert gaussian.is_physical(row(1e4, 1e-8))
        assert not gaussian.is_physical(row(1e4, 1e-5))
        with pytest.raises(UnphysicalCovarianceError):
            gaussian.purity(row(1e4, 1e-5))

    def test_high_energy_frontier_rows_are_physical(self):
        # the pure TMSV at E = 1e4 and the GLEMS at (5000, 0.9) failed the
        # absolute 1e-10 check by roundoff alone
        for sf in (gaussian.two_mode_squeezed_vacuum(1e4), gaussian.glems(5000.0, 0.9),
                   gaussian.gmems(5000.0, 0.9), gaussian.two_mode_squeezed_vacuum(1e6)):
            assert gaussian.is_physical(sf)
            gaussian.log_negativity(sf)

    @given(st.integers(0, 2**64 - 1), st.sampled_from([(0.0, 2.0), (20.0, 40.0), (50.0, 100.0)]))
    @settings(max_examples=15, deadline=None)
    def test_reduced_rows_pass_the_layer_measures(self, seed, window):
        cms = oracles.sampled_covariances(seed, 0, 256, window)
        params = gaussian.reduce_to_standard_form(cms)
        sf = gaussian.StandardFormCM(*params.T)
        assert gaussian.is_physical(sf).all()
        for measure in (gaussian.purity, gaussian.energy, gaussian.ppt_nu_minus,
                        gaussian.log_negativity, gaussian.negativity):
            assert np.all(np.isfinite(measure(sf)))


SPECTRUM_WINDOWS = [(0.0, 2.0), (1.0, 2.0), (20.0, 40.0), (50.0, 100.0)]


class TestDrawnSpectrumReference:
    """The reduction of sampled matrices, checked against LAPACK's invariants."""

    @pytest.mark.parametrize("window", SPECTRUM_WINDOWS)
    def test_perturbed_c_minus_raises(self, monkeypatch, window):
        sigmas = oracles.sampled_covariances(7, 0, 256, window)
        params = gaussian.reduce_to_standard_form(sigmas)
        # the row with the largest |c-| / a, where moving c- moves Det sigma and Delta most
        row = np.argmax(np.abs(params[:, 3]) / params[:, 0])
        real = gaussian._standard_form_rows

        def perturbed(cms):
            rows = real(cms)
            rows[row, 3] -= np.sign(rows[row, 3]) * 1e-6 * rows[row, 0]
            return rows

        monkeypatch.setattr(gaussian, "_standard_form_rows", perturbed)
        with pytest.raises(InvariantViolation):
            gaussian.reduce_to_standard_form(sigmas)

    @pytest.mark.parametrize("window", SPECTRUM_WINDOWS)
    def test_swapped_nu_plus_raises(self, monkeypatch, window):
        # the invariants of the matrices with the least and the largest drawn
        # nu_+, swapped, are refused at each window's scale
        u = sampling._accepted_candidates(7, 0, 256, window)
        sigmas = sampling.candidate_covariances(u, window)
        nu_p = sampling._drawn_parameters(u, window[1])[1]
        i, j = np.argmin(nu_p), np.argmax(nu_p)
        real = gaussian._block_invariants

        def swapped(cms):
            *dets, ds, delta = real(cms)
            if len(cms) == 1:
                ds, delta = (x.copy() for x in real(sigmas[[j]])[3:])
            else:
                ds[[i, j]], delta[[i, j]] = ds[[j, i]], delta[[j, i]]
            return (*dets, ds, delta)

        want = gaussian.reduce_to_standard_form(sigmas[i])
        monkeypatch.setattr(gaussian, "_block_invariants", swapped)
        with pytest.raises(InvariantViolation):
            gaussian.reduce_to_standard_form(sigmas)
        # each matrix alone, with the other's invariants
        with pytest.raises(InvariantViolation):
            gaussian.reduce_to_standard_form(sigmas[i])
        assert isinstance(want, gaussian.StandardFormCM)

    @given(st.integers(0, 2**64 - 1), st.integers(0, 10**9), st.sampled_from(SPECTRUM_WINDOWS))
    @settings(max_examples=20, deadline=None)
    def test_drawn_invariants_match_the_lapack_ones(self, seed, start, window):
        # the drawn spectrum, which gives the records' purity, sits within the
        # absolute-relative tolerance of the LAPACK invariants of the matrices
        u = sampling._accepted_candidates(seed, start, 64, window)
        sigmas = sampling.candidate_covariances(u, window)
        nu_minus, nu_plus = sampling._drawn_parameters(u, window[1])[:2]
        for cm, nu_m, nu_p in zip(sigmas, nu_minus, nu_plus):
            _, _, _, ds, delta = oracles.cm_block_invariants(cm)
            assert abs((nu_m * nu_p) ** 2 - ds) <= 1e-9 * max(1.0, abs(ds))
            assert abs(nu_m * nu_m + nu_p * nu_p - delta) <= 1e-9 * max(1.0, abs(delta))

    def test_indefinite_matrix_with_its_spectrum_raises(self):
        # the matrix of the row (2, 2, 3, 3) has eigenvalues -1, -1, 5, 5, yet its
        # invariants Det sigma = 25 and Delta = 26 are those of the spectrum (1, 5)
        s = oracles.expand(gaussian.StandardFormCM(2.0, 2.0, 3.0, 3.0))
        assert np.allclose(np.linalg.eigvalsh(s), [-1.0, -1.0, 5.0, 5.0])
        with pytest.raises(UnphysicalCovarianceError, match="not positive semidefinite"):
            gaussian.reduce_to_standard_form(s)
        with pytest.raises(UnphysicalCovarianceError, match="not positive semidefinite"):
            gaussian.reduce_to_standard_form(np.stack([2.0 * np.eye(4), s]))

    def test_sampler_path_makes_no_lapack_call(self, monkeypatch):
        cfg = sampling.SamplerConfig(seed=5, count=300, system="gaussian")
        want = sampling.records_chunk(cfg, 0, 300)
        cms = oracles.sampled_covariances(5, 0, 300, sampling.DEFAULT_ENERGY_WINDOW)
        calls = set()
        for name in np.linalg.__all__:
            real = getattr(np.linalg, name)
            if isinstance(real, type):
                continue

            def spy(*args, _real=real, _name=name, **kwargs):
                calls.add(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, spy)
        got = sampling.records_chunk(cfg, 0, 300)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert calls == set()
        gaussian.reduce_to_standard_form(cms)
        assert calls == {"det", "eigvalsh"}


def mp_log_negativity(row):
    """Log-negativity of a row (a, b, c+, c-), taken exactly as given, at 50 digits."""
    with mpmath.workdps(50):
        a, b, cp, cm = map(mpmath.mpf, row)
        det = (a * b - cp**2) * (a * b - cm**2)
        ppt_delta = a**2 + b**2 - 2 * cp * cm
        nu = mpmath.sqrt((ppt_delta - mpmath.sqrt(ppt_delta**2 - 4 * det)) / 2)
        return max(mpmath.mpf(0), -mpmath.log(nu))


def row_roundoff(sf):
    """2 eps times the first-order conditioning of ln(sqrt(Det sigma) / nu~_+) in
    the row's entries: each factor ab - c^2 relative to its absolute terms, and
    Delta~ likewise."""
    a, b, cp, cm = sf.a, sf.b, sf.c_plus, sf.c_minus
    ab = a * b
    scale = ((ab + cp**2) / abs(ab - cp**2) + (ab + cm**2) / abs(ab - cm**2)
             + (a**2 + b**2 + 2.0 * abs(cp * cm)) / (a**2 + b**2 - 2.0 * cp * cm))
    return 2.0 * gaussian.EPS * scale


def construction_roundoff(sf, P):
    """First-order roundoff of -ln(a - c), the log-negativity of a symmetric row
    with c+ = -c- = c, from building a = E + 1 and c = sqrt(a^2 - 1/P) in floats:
    a to eps/2, c^2 to eps (3 a^2 + 1/P + 3 c^2) / 2 and so c to that over 2c."""
    a, c = sf.a, sf.c_plus
    dc = gaussian.EPS * (1.5 * a * a + 0.5 / P + 1.5 * c * c) / (2.0 * c)
    return (gaussian.EPS * a / 2.0 + dc) / (a - c)


class TestHighEnergyFrontiers:
    @pytest.mark.parametrize("sf", [
        gaussian.two_mode_squeezed_vacuum(100.0),
        gaussian.two_mode_squeezed_vacuum(1000.0),
        gaussian.two_mode_squeezed_vacuum(1e4),
        gaussian.gmems(500.0, 0.5),
        gaussian.gmems(5000.0, 0.9),
        gaussian.glems(5000.0, 0.9),
    ], ids=["tmsv-100", "tmsv-1000", "tmsv-1e4", "gmems-500-0.5", "gmems-5000-0.9",
            "glems-5000-0.9"])
    def test_log_negativity_against_mpmath(self, sf):
        # nu~_- = sqrt((Delta~ - sqrt(Delta~^2 - 4 Det sigma)) / 2) cancelled on
        # these rows: gmems(5000, 0.9) was 0.25 off and glems(5000, 0.9) raised
        want = mp_log_negativity((sf.a, sf.b, sf.c_plus, sf.c_minus))
        assert abs(float(gaussian.log_negativity(sf) - want)) <= row_roundoff(sf)

    @given(st.floats(np.log(0.01), np.log(1e4)), st.floats(0.0, 1.0))
    @settings(max_examples=80, deadline=None)
    def test_flag_curves_against_mpmath(self, log_energy, t):
        # the sampler's pure-state curve arccosh(E + 1) and GMEMS bound
        # ln(P (A + sqrt(A^2 - 1/P))), A = E + 1, are log_negativity of the
        # extremal states; P runs over the entangled range [1/(2E + 1), 1]
        E = float(np.exp(log_energy))
        P = 1.0 / (2.0 * E + 1.0) + t * (1.0 - 1.0 / (2.0 * E + 1.0))
        with mpmath.workdps(50):
            A, Pm = mpmath.mpf(E) + 1, mpmath.mpf(P)
            tmsv_want = mpmath.acosh(A)
            gmems_want = max(mpmath.mpf(0), mpmath.log(Pm * (A + mpmath.sqrt(A**2 - 1 / Pm))))
        for sf, p, want in ((gaussian.two_mode_squeezed_vacuum(E), 1.0, tmsv_want),
                            (gaussian.gmems(E, P), P, gmems_want)):
            tol = row_roundoff(sf) + construction_roundoff(sf, p)
            assert abs(float(gaussian.log_negativity(sf) - want)) <= tol


def _physical_rows(seed, n):
    """(n, 4) physical standard forms: haphazard ones and frontier rows up to E = 1e4."""
    rng = np.random.default_rng(seed)
    rows = []
    for k in range(n):
        E = float(np.exp(rng.uniform(np.log(0.01), np.log(1e4))))
        P = 1.0 / (2.0 * E + 1.0) + rng.uniform() * (1.0 - 1.0 / (2.0 * E + 1.0))
        sf = [random_sf(seed + k), gaussian.two_mode_squeezed_vacuum(E), gaussian.gmems(E, P),
              gaussian.glems(E, P)][k % 4]
        rows.append([sf.a, sf.b, sf.c_plus, sf.c_minus])
    return np.array(rows)


def _stacked(rows):
    return gaussian.StandardFormCM(*np.asarray(rows).T)


class TestStackedLayer:
    MEASURES = {
        "det_sigma": gaussian.det_sigma,
        "seralian": gaussian.seralian,
        "ppt_seralian": gaussian.ppt_seralian,
        "nu_minus": lambda sf: gaussian.symplectic_eigenvalues(sf)[0],
        "nu_plus": lambda sf: gaussian.symplectic_eigenvalues(sf)[1],
        "is_physical": gaussian.is_physical,
        "purity": gaussian.purity,
        "energy": gaussian.energy,
        "ppt_nu_minus": gaussian.ppt_nu_minus,
        "log_negativity": gaussian.log_negativity,
        "negativity": gaussian.negativity,
        "is_separable": oracles.is_separable,
    }

    @given(st.integers(0, 100_000), st.integers(1, 24))
    @settings(max_examples=40, deadline=None)
    def test_measures_of_a_stack_equal_per_row_calls_bitwise(self, seed, n):
        rows = _physical_rows(seed, n)
        for name, measure in self.MEASURES.items():
            stacked = measure(_stacked(rows))
            assert stacked.shape == (n,), name
            for row, value in zip(rows.tolist(), stacked.tolist()):
                alone = measure(gaussian.StandardFormCM(*row))
                assert type(alone) is type(value) and alone == value, name
            # a (2, m) stack gives the same values in that shape
            if n % 2 == 0:
                fields = rows.reshape(2, n // 2, 4).transpose(2, 0, 1)
                grid = measure(gaussian.StandardFormCM(*fields))
                assert np.array_equal(grid.ravel(), stacked), name

    @given(st.integers(0, 100_000), st.integers(1, 12))
    @settings(max_examples=20, deadline=None)
    def test_physicality_of_a_mixed_stack_is_per_row(self, seed, n):
        rows = _physical_rows(seed, n)
        rows[::2, 2] = 1.01 * np.sqrt(rows[::2, 0] * rows[::2, 1])  # ab - c+^2 < 0
        flags = gaussian.is_physical(_stacked(rows))
        assert flags.tolist() == [gaussian.is_physical(gaussian.StandardFormCM(*row))
                                  for row in rows.tolist()]
        assert not flags[0]
        with pytest.raises(UnphysicalCovarianceError):
            gaussian.purity(_stacked(rows))

    @given(st.lists(st.floats(np.log(0.01), np.log(1e4)), min_size=1, max_size=16),
           st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_families_of_a_stack_equal_per_point_calls_bitwise(self, log_energies, t):
        E = np.exp(log_energies)
        P = 1.0 / (2.0 * E + 1.0) + t * (1.0 - 1.0 / (2.0 * E + 1.0))
        families = {
            "tmsv": lambda e, p: gaussian.two_mode_squeezed_vacuum(e),
            "gmems": gaussian.gmems,
            "glems": gaussian.glems,
        }
        for name, family in families.items():
            stacked = family(E, P)
            for i, (e, p) in enumerate(zip(E.tolist(), P.tolist())):
                alone = family(e, p)
                assert [type(x) for x in (alone.a, alone.c_plus)] == [float, float], name
                assert [alone.a, alone.b, alone.c_plus, alone.c_minus] == [
                    stacked.a[i], stacked.b[i], stacked.c_plus[i], stacked.c_minus[i]
                ], name
        lo, hi = gaussian.separability_band(E)
        assert [lo.tolist(), hi.tolist()] == [list(x) for x in zip(
            *[gaussian.separability_band(e) for e in E.tolist()])]

    def test_family_domains_are_checked_over_the_whole_stack(self):
        with pytest.raises(DomainError, match="no GLEMS below purity"):
            gaussian.glems(1.0, np.array([0.5, 0.3, 0.9]))
        with pytest.raises(DomainError):
            gaussian.gmems(np.array([1.0, 2.0]), np.array([0.5, 0.1]))
        with pytest.raises(DomainError):
            gaussian.two_mode_squeezed_vacuum(np.array([1.0, -0.5]))
        with pytest.raises(DomainError):
            gaussian.separability_band(np.array([0.0, -0.1]))
        with pytest.raises(DomainError, match="diagonal parameters"):
            gaussian.StandardFormCM(np.array([1.0, 0.5]), np.ones(2), np.zeros(2), np.zeros(2))


class TestContainment:
    @given(st.integers(0, 100_000))
    @settings(max_examples=80, deadline=None)
    def test_purity_energy_bounds(self, seed):
        rng = np.random.default_rng(seed)
        sf = gaussian.reduce_to_standard_form(random_covariance(rng))
        P, E = gaussian.purity(sf), gaussian.energy(sf)
        assert P >= 1.0 / (E + 1.0) ** 2 - 1e-9
        if gaussian.log_negativity(sf) > 0.0:
            assert P > 1.0 / (2.0 * E + 1.0) - 1e-9
