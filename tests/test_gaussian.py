"""Two-mode Gaussian invariants, entanglement measures and extremal families."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from epe import gaussian
from epe.errors import DomainError, UnphysicalCovarianceError
from epe.sampling import gaussian_covariances_chunk, random_covariance, random_standard_form_at

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
        assert np.allclose(gaussian.expand(VACUUM), np.eye(4))
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
        m = gaussian.expand(sf)
        assert np.array_equal(m, m.T)
        assert m[0, 2] == 0.7 and m[1, 3] == -0.3 and m[0, 1] == 0.0

    @given(st.integers(0, 100_000))
    @settings(max_examples=100, deadline=None)
    def test_spectrum_identities(self, seed):
        sf = random_sf(seed)
        spec = gaussian.symplectic_eigenvalues(sf)
        assert spec.nu_minus * spec.nu_plus == pytest.approx(
            np.sqrt(gaussian.det_sigma(sf)), abs=1e-10
        )
        assert spec.nu_minus**2 + spec.nu_plus**2 == pytest.approx(
            gaussian.seralian(sf), abs=1e-10
        )
        # uncertainty relation in invariant form
        assert gaussian.seralian(sf) <= 1.0 + gaussian.det_sigma(sf) + 1e-10


class TestSymplecticSpectrum:
    def test_spot_values(self):
        assert gaussian.symplectic_eigenvalues(VACUUM) == gaussian.SymplecticSpectrum(1.0, 1.0)
        spec = gaussian.symplectic_eigenvalues(THERMAL3)
        assert (spec.nu_minus, spec.nu_plus) == pytest.approx((3.0, 3.0))
        spec = gaussian.symplectic_eigenvalues(TMSV3)
        assert (spec.nu_minus, spec.nu_plus) == pytest.approx((1.0, 1.0), abs=1e-12)

    @given(st.integers(0, 100_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_matrix_route(self, seed):
        # closed form from invariants versus |eig(i Omega sigma)|
        sf = random_sf(seed)
        spec = gaussian.symplectic_eigenvalues(sf)
        ref = gaussian.cm_symplectic_eigenvalues(gaussian.expand(sf))
        assert spec.nu_minus == pytest.approx(ref.nu_minus, abs=1e-9)
        assert spec.nu_plus == pytest.approx(ref.nu_plus, abs=1e-9)

    def test_unphysical_rejected(self):
        sf = gaussian.StandardFormCM(1.0, 1.0, 0.9, 0.9)  # sigma >= 0 but nu_- < 1
        assert not gaussian.is_physical(sf)
        with pytest.raises(UnphysicalCovarianceError):
            gaussian.purity(sf)


class TestPurityEnergy:
    def test_vacuum(self):
        assert gaussian.purity(VACUUM) == 1.0
        assert gaussian.energy(VACUUM) == 0.0

    def test_tmsv(self):
        assert gaussian.purity(TMSV3) == pytest.approx(1.0, abs=1e-12)
        assert gaussian.energy(TMSV3) == pytest.approx(2.0)

    def test_maximally_mixed(self):
        sf = gaussian.maximally_mixed(1.0)
        assert gaussian.purity(sf) == pytest.approx(0.25)
        assert gaussian.energy(sf) == pytest.approx(1.0)

    def test_local_photon_numbers(self):
        n1, n2 = gaussian.local_photon_numbers(gaussian.thermal_product(1.0, 0.25))
        assert (n1, n2) == pytest.approx((1.0, 0.25))


class TestPPT:
    def test_thermal_separable(self):
        assert gaussian.ppt_nu_minus(THERMAL3) == pytest.approx(3.0)
        assert gaussian.log_negativity(THERMAL3) == 0.0
        assert gaussian.is_separable(THERMAL3)

    def test_tmsv_closed_form(self):
        # nu~ = a - sqrt(a^2 - 1) for the pure symmetric family
        assert gaussian.ppt_nu_minus(TMSV3) == pytest.approx(0.1715728752538097, abs=1e-12)
        assert gaussian.log_negativity(TMSV3) == pytest.approx(1.7627471740390872, abs=1e-12)
        assert not gaussian.is_separable(TMSV3)

    def test_vacuum(self):
        assert gaussian.ppt_nu_minus(VACUUM) == pytest.approx(1.0)
        assert gaussian.log_negativity(VACUUM) == 0.0

    def test_negativity_relation(self):
        nu = gaussian.ppt_nu_minus(TMSV3)
        assert gaussian.negativity(TMSV3) == pytest.approx((1.0 - nu) / (2.0 * nu), abs=1e-12)

    @given(st.integers(0, 100_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_matrix_route(self, seed):
        sf = random_sf(seed)
        ref = gaussian.cm_ppt_nu_minus(gaussian.expand(sf))
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
        assert gaussian.thermal_product(0.0, 0.0) == VACUUM
        sf = gaussian.thermal_product(1.0, 1.0)
        assert sf == THERMAL3
        assert gaussian.purity(sf) == pytest.approx(1.0 / 9.0)
        assert gaussian.energy(sf) == pytest.approx(2.0)
        # saturates the separable purity floor 1/(E+1)^2
        assert gaussian.purity(sf) == pytest.approx(1.0 / (gaussian.energy(sf) + 1.0) ** 2)
        sf = gaussian.thermal_product(1.0, 0.0)
        assert (gaussian.purity(sf), gaussian.energy(sf)) == pytest.approx((1.0 / 3.0, 1.0))
        with pytest.raises(DomainError):
            gaussian.thermal_product(-0.1, 0.0)

    def test_local_squeeze(self):
        assert np.allclose(gaussian.local_squeeze(TMSV3, 0.0), gaussian.expand(TMSV3))
        r = 0.5 * np.arccosh(2.0)
        squeezed = gaussian.local_squeeze(TMSV3, r)
        assert gaussian.cm_energy(squeezed) == pytest.approx(5.0, abs=1e-12)
        squeezed = gaussian.local_squeeze(VACUUM, 1.0)
        assert gaussian.cm_energy(squeezed) == pytest.approx(np.cosh(2.0) - 1.0, abs=1e-12)
        assert gaussian.cm_purity(squeezed) == pytest.approx(1.0, abs=1e-10)
        assert gaussian.cm_ppt_nu_minus(squeezed) >= 1.0 - 1e-10

    @given(st.integers(0, 100_000), st.floats(-1.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_local_squeeze_invariances(self, seed, r):
        sf = random_sf(seed)
        squeezed = gaussian.local_squeeze(sf, r)
        back = gaussian.reduce_to_standard_form(squeezed)
        assert gaussian.purity(back) == pytest.approx(gaussian.purity(sf), abs=1e-9)
        assert gaussian.ppt_nu_minus(back) == pytest.approx(gaussian.ppt_nu_minus(sf), abs=1e-9)
        spec0 = gaussian.symplectic_eigenvalues(sf)
        spec1 = gaussian.symplectic_eigenvalues(back)
        assert spec1.nu_minus == pytest.approx(spec0.nu_minus, abs=1e-9)
        assert spec1.nu_plus == pytest.approx(spec0.nu_plus, abs=1e-9)


class TestGmems:
    def test_pure_limit_is_tmsv(self):
        assert_sf_close(gaussian.gmems(2.0, 1.0), TMSV3)

    def test_separability_threshold(self):
        sf = gaussian.gmems(1.0, 1.0 / 3.0)
        assert gaussian.ppt_nu_minus(sf) == pytest.approx(1.0, abs=1e-12)

    def test_band_floor_is_maximally_mixed(self):
        assert_sf_close(gaussian.gmems(1.0, 0.25), gaussian.maximally_mixed(1.0))

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
            sf = random_standard_form_at(E, P, rng)
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
        assert gaussian.is_separable(sf)

    def test_spectrum_is_pinned(self):
        for E, P in [(0.5, 0.8), (1.0, 0.6), (2.0, 0.35)]:
            sf = gaussian.glems(E, P)
            spec = gaussian.symplectic_eigenvalues(sf)
            assert spec.nu_minus == pytest.approx(1.0, abs=1e-10)
            assert spec.nu_plus == pytest.approx(1.0 / P, abs=1e-10)
            assert gaussian.energy(sf) == pytest.approx(E, abs=1e-12)
            assert gaussian.ppt_seralian(sf) == pytest.approx(
                4.0 * (E + 1.0) ** 2 - (1.0 + 1.0 / P**2), abs=1e-8
            )

    def test_pure_limit_is_tmsv(self):
        assert_sf_close(gaussian.glems(2.0, 1.0), TMSV3, tol=1e-9)

    def test_separable_band(self):
        E = 1.0
        lo = 1.0 / (2.0 * E + 1.0)
        hi = 1.0 / np.sqrt(2.0 * E**2 + 4.0 * E + 1.0)
        for P in np.linspace(lo, hi, 9):
            assert gaussian.is_separable(gaussian.glems(E, P))
        assert not gaussian.is_separable(gaussian.glems(E, hi + 0.01))

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
        back = gaussian.reduce_to_standard_form(gaussian.expand(sf))
        assert_sf_close(back, sf)

    def test_sign_canonicalization(self):
        sf = gaussian.StandardFormCM(2.0, 1.5, -0.7, 0.3)
        back = gaussian.reduce_to_standard_form(gaussian.expand(sf))
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
        rotated = R @ gaussian.expand(TMSV3) @ R.T
        back = gaussian.reduce_to_standard_form(rotated)
        assert_sf_close(back, TMSV3, tol=1e-9)

    @given(st.integers(0, 100_000))
    @settings(max_examples=50, deadline=None)
    def test_invariants_preserved(self, seed):
        rng = np.random.default_rng(seed)
        cm = random_covariance(rng)
        sf = gaussian.reduce_to_standard_form(cm)
        da, db, dg, ds, delta = gaussian.cm_block_invariants(cm)
        assert sf.a**2 == pytest.approx(da, rel=1e-9, abs=1e-9)
        assert sf.b**2 == pytest.approx(db, rel=1e-9, abs=1e-9)
        assert sf.c_plus * sf.c_minus == pytest.approx(dg, rel=1e-9, abs=1e-9)
        assert gaussian.det_sigma(sf) == pytest.approx(ds, rel=1e-9, abs=1e-9)
        assert gaussian.seralian(sf) == pytest.approx(delta, rel=1e-9, abs=1e-9)
        assert gaussian.purity(sf) == pytest.approx(gaussian.cm_purity(cm), rel=1e-9)
        assert gaussian.energy(sf) >= -1e-12
        assert gaussian.ppt_nu_minus(sf) == pytest.approx(gaussian.cm_ppt_nu_minus(cm), abs=1e-9)

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
            gaussian.expand(gaussian.StandardFormCM(2.0, 1.5, -0.7, 0.3)),  # sign flip
            2.5 * np.eye(4),
            rotated @ gaussian.expand(TMSV3) @ rotated.T,
        ]
        cms = np.concatenate([gaussian_covariances_chunk(seed, 0, count, window), special])
        params = gaussian.reduce_to_standard_form(cms)
        assert params.shape == (count + 3, 4)
        for cm, row in zip(cms, params):
            sf = gaussian.reduce_to_standard_form(cm)
            assert isinstance(sf, gaussian.StandardFormCM)
            assert np.array_equal([sf.a, sf.b, sf.c_plus, sf.c_minus], row)

    @given(st.integers(0, 9))
    @settings(max_examples=10, deadline=None)
    def test_stack_with_one_bad_matrix_raises(self, k):
        cms = gaussian_covariances_chunk(3, 0, 10)
        unphysical = cms.copy()
        unphysical[k] = 0.5 * np.eye(4)
        asymmetric = cms.copy()
        asymmetric[k, 0, 1] += 0.3
        for bad in (unphysical, asymmetric):
            with pytest.raises(UnphysicalCovarianceError):
                gaussian.reduce_to_standard_form(bad)
        with pytest.raises(UnphysicalCovarianceError):
            gaussian.reduce_to_standard_form(cms.reshape(2, 5, 4, 4))


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
