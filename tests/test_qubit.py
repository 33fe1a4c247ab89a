"""Two-qubit measures, extremal families and boundary curves."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epe import qubit
from epe.errors import DomainError, InvalidStateError

PHI_PLUS = qubit.ket_to_dm(qubit.BELL_STATES["phi+"])
MIXED = np.eye(4, dtype=complex) / 4.0
GROUND = qubit.ket_to_dm([1, 0, 0, 0])


def spinflip_sqrt_eigs_oracle(rho):
    """Square roots of the eigenvalues of R, via the characteristic polynomial.

    Independent of the eigensolver used by the implementation: the
    eigenvalues are recovered as roots of det(R - x I).
    """
    yy = np.kron(qubit.SIGMA_Y, qubit.SIGMA_Y)
    R = rho @ yy @ rho.conj() @ yy
    mu = np.sqrt(np.clip(np.roots(np.poly(R)).real, 0.0, None))
    return np.sort(mu)[::-1]


def concurrence_oracle(rho):
    mu = spinflip_sqrt_eigs_oracle(rho)
    return max(0.0, mu[0] - mu[1:].sum())


def random_state(seed, rank=4):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
    M = G @ G.conj().T
    return M / np.trace(M).real


def random_params(seed):
    rng = np.random.default_rng(seed)
    axes = rng.standard_normal((2, 3))
    axes /= np.linalg.norm(axes, axis=1)[:, None]
    t1, t2 = rng.uniform(0.0, np.pi, size=2)
    return qubit.LocalUnitaryParams(
        theta1=t1, theta2=t2, axis1=tuple(axes[0]), axis2=tuple(axes[1])
    )


class TestConcurrence:
    def test_bell_state(self):
        assert qubit.concurrence(PHI_PLUS) == pytest.approx(1.0, abs=1e-12)

    def test_product_state(self):
        assert qubit.concurrence(GROUND) == pytest.approx(0.0, abs=1e-12)

    def test_werner_half(self):
        # oracle gives (3r - 1)/2 = 1/4 at r = 1/2
        rho = qubit.werner_state(0.5)
        assert concurrence_oracle(rho) == pytest.approx(0.25, abs=1e-10)
        assert qubit.concurrence(rho) == pytest.approx(0.25, abs=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle(self, seed):
        rho = random_state(seed)
        assert qubit.concurrence(rho) == pytest.approx(concurrence_oracle(rho), abs=1e-9)

    def test_rejects_invalid(self):
        bad = np.eye(4, dtype=complex) / 4.0
        bad[0, 1] = 0.5  # not Hermitian
        with pytest.raises(InvalidStateError):
            qubit.concurrence(bad)
        with pytest.raises(InvalidStateError):
            qubit.concurrence(np.eye(4) / 2.0)  # trace 2
        neg = np.diag([0.7, 0.5, -0.1, -0.1]).astype(complex)
        with pytest.raises(InvalidStateError):
            qubit.concurrence(neg)


class TestStackedConcurrence:
    def test_matches_scalar_calls_bitwise(self):
        rhos = np.stack([random_state(seed, rank=1 + seed % 4) for seed in range(200)])
        rhos = np.concatenate([rhos, [PHI_PLUS, MIXED, GROUND]])
        stacked = qubit.concurrence(rhos)
        assert stacked.shape == (len(rhos),)
        for rho, value in zip(rhos, stacked):
            assert value == qubit.concurrence(rho)
        grid = qubit.concurrence(rhos[:200].reshape(10, 20, 4, 4))
        assert grid.shape == (10, 20)
        assert np.array_equal(grid.ravel(), stacked[:200])

    def test_single_matrix_gives_float(self):
        assert type(qubit.concurrence(PHI_PLUS)) is float
        assert type(qubit.concurrence(PHI_PLUS, check=False)) is float

    def test_stack_validation_rejects_any_bad_member(self):
        bad = np.diag([0.7, 0.5, -0.1, -0.1]).astype(complex)
        with pytest.raises(InvalidStateError):
            qubit.concurrence(np.stack([PHI_PLUS, bad, MIXED]))
        with pytest.raises(InvalidStateError):
            qubit.validate_state(np.zeros((3, 4, 3)))
        assert qubit.validate_state(np.stack([PHI_PLUS, MIXED])).shape == (2, 4, 4)


class TestDerivedMeasures:
    def test_tangle_is_squared_concurrence(self):
        for seed in range(20):
            rho = random_state(seed)
            assert qubit.tangle(rho) == qubit.concurrence(rho) ** 2

    def test_eof_endpoints(self):
        assert qubit.eof_from_concurrence(1.0) == pytest.approx(1.0, abs=1e-12)
        assert qubit.eof_from_concurrence(0.0) == 0.0

    def test_eof_at_half(self):
        # x_pm = (1 pm sqrt(3)/2)/2, frozen from direct evaluation of h
        root = np.sqrt(1.0 - 0.25)
        assert (1.0 + root) / 2.0 == pytest.approx(0.9330127018922193, abs=1e-15)
        assert (1.0 - root) / 2.0 == pytest.approx(0.0669872981077807, abs=1e-15)
        assert qubit.eof_from_concurrence(0.5) == pytest.approx(0.35457890266527003, abs=1e-14)

    def test_eof_monotone_in_concurrence(self):
        grid = np.linspace(0.0, 1.0, 1000)
        vals = qubit.eof_from_concurrence(grid)
        assert np.all(np.diff(vals) >= 0.0)


class TestNegativity:
    def test_bell_state(self):
        # rho^Gamma eigenvalues are {-1/2, 1/2, 1/2, 1/2}
        eigs = np.sort(np.linalg.eigvalsh(qubit.partial_transpose(PHI_PLUS)))
        assert eigs == pytest.approx([-0.5, 0.5, 0.5, 0.5], abs=1e-12)
        assert qubit.negativity(PHI_PLUS) == pytest.approx(0.5, abs=1e-12)
        assert qubit.log_negativity(PHI_PLUS) == pytest.approx(1.0, abs=1e-12)

    def test_product_state(self):
        assert qubit.negativity(GROUND) == 0.0
        assert qubit.log_negativity(GROUND) == 0.0

    def test_werner_threshold(self):
        # min eigenvalue of rho^Gamma is (1 - 3r)/4, zero at r = 1/3
        rho = qubit.werner_state(1.0 / 3.0)
        assert np.linalg.eigvalsh(qubit.partial_transpose(rho)).min() == pytest.approx(
            0.0, abs=1e-12
        )
        assert qubit.negativity(rho) == pytest.approx(0.0, abs=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_partial_transpose_involution(self, seed):
        rho = random_state(seed)
        assert np.array_equal(qubit.partial_transpose(qubit.partial_transpose(rho)), rho)


class TestPurityEnergy:
    def test_purity_spot_values(self):
        assert qubit.purity(MIXED) == pytest.approx(0.25, abs=1e-15)
        assert qubit.purity(PHI_PLUS) == pytest.approx(1.0, abs=1e-12)
        # Tr rho_W^2 = r^2 + r(1-r)/2 + (1-r)^2/4 = 7/16 at r = 1/2
        assert qubit.purity(qubit.werner_state(0.5)) == pytest.approx(7.0 / 16.0, abs=1e-12)

    def test_energy_spot_values(self):
        assert qubit.energy(GROUND) == pytest.approx(0.0, abs=1e-15)
        assert qubit.energy(qubit.ket_to_dm([0, 0, 0, 1])) == pytest.approx(2.0, abs=1e-15)
        for name in qubit.BELL_STATES:
            assert qubit.energy(qubit.ket_to_dm(qubit.BELL_STATES[name])) == pytest.approx(
                1.0, abs=1e-12
            )


class TestMems:
    def test_bell_limit(self):
        assert np.allclose(qubit.mems_state(1.0), PHI_PLUS, atol=1e-15)

    def test_branch_agreement_at_two_thirds(self):
        lo = qubit.mems_state(2.0 / 3.0 - 1e-15)
        hi = qubit.mems_state(2.0 / 3.0 + 1e-15)
        assert np.allclose(lo, hi, atol=1e-12)
        assert qubit.purity(qubit.mems_state(2.0 / 3.0)) == pytest.approx(5.0 / 9.0, abs=1e-12)

    def test_zero_concurrence_branch(self):
        rho = qubit.mems_state(0.0)
        assert np.allclose(np.diag(rho), [1 / 3, 1 / 3, 0.0, 1 / 3], atol=1e-15)
        assert qubit.purity(rho) == pytest.approx(1.0 / 3.0, abs=1e-14)

    @pytest.mark.parametrize("C", [0.0, 0.2, 0.5, 2.0 / 3.0, 0.8, 1.0])
    def test_concurrence_and_energy(self, C):
        rho = qubit.mems_state(C)
        assert qubit.concurrence(rho) == pytest.approx(C, abs=1e-10)
        assert qubit.energy(rho) == pytest.approx(1.0, abs=1e-12)
        assert qubit.purity(rho) == pytest.approx(qubit.mems_purity(C), abs=1e-12)

    def test_purity_formula(self):
        assert qubit.mems_purity(0.0) == pytest.approx(1.0 / 3.0)
        assert qubit.mems_purity(1.0) == pytest.approx(1.0)
        assert qubit.mems_purity(2.0 / 3.0) == pytest.approx(5.0 / 9.0)
        # continuity from both branches: 1/3 + 2/9 = 4/9 + 1/9
        assert 1.0 / 3.0 + (2.0 / 3.0) ** 2 / 2.0 == pytest.approx(
            (2.0 / 3.0) ** 2 + (1.0 / 3.0) ** 2
        )

    def test_concurrence_bound_inverts_purity(self):
        for C in np.linspace(0.0, 1.0, 101):
            assert qubit.mems_concurrence_bound(qubit.mems_purity(C)) == pytest.approx(
                C, abs=1e-12
            )
        assert qubit.mems_concurrence_bound(0.3) == 0.0  # below the P = 1/3 floor

    def test_energy_range(self):
        assert qubit.mems_energy_range(1.0) == (1.0, 1.0)
        assert qubit.mems_energy_range(0.9) == pytest.approx((0.9, 1.1))
        assert qubit.mems_energy_range(0.5) == pytest.approx((2.0 / 3.0, 4.0 / 3.0))

    def test_domain_errors(self):
        for fn in (qubit.mems_state, qubit.mems_purity, qubit.mems_energy_range):
            with pytest.raises(DomainError):
                fn(-0.1)
            with pytest.raises(DomainError):
                fn(1.1)

    @pytest.mark.parametrize("C", [0.3, 2.0 / 3.0, 0.9])
    def test_maximality_at_fixed_purity(self, C):
        # no random state at the MEMS purity may beat the MEMS concurrence
        from epe.sampling import random_state_with_purity

        rng = np.random.default_rng(2024)
        P = qubit.mems_purity(C)
        worst = 0.0
        for _ in range(10_000):
            rho = random_state_with_purity(P, rng)
            worst = max(worst, qubit.concurrence(rho, check=False))
        assert worst <= C + 1e-9


class TestWerner:
    def test_endpoints(self):
        assert np.allclose(qubit.werner_state(0.0), MIXED)
        assert np.allclose(qubit.werner_state(1.0, "psi-"), qubit.ket_to_dm(qubit.BELL_STATES["psi-"]))

    def test_domain(self):
        with pytest.raises(DomainError):
            qubit.werner_state(1.5)
        with pytest.raises(DomainError):
            qubit.werner_state(0.5, bell="nope")


class TestBoundaries:
    def test_separable_min_purity_values(self):
        assert qubit.separable_min_purity(1.0) == pytest.approx(0.25)
        assert qubit.separable_min_purity(0.5) == pytest.approx(3.0 / 8.0)
        assert qubit.separable_min_purity(1.5) == pytest.approx(3.0 / 8.0)
        assert qubit.separable_min_purity(0.0) == pytest.approx(1.0)
        assert qubit.separable_min_purity(2.0) == pytest.approx(1.0)

    def test_separable_min_purity_symmetry_and_continuity(self):
        E = np.linspace(0.0, 2.0, 401)
        vals = qubit.separable_min_purity(E)
        assert vals == pytest.approx(vals[::-1], abs=1e-12)
        # continuity at the piece joints
        for e in (0.5, 1.5):
            assert qubit.separable_min_purity(e - 1e-10) == pytest.approx(
                qubit.separable_min_purity(e + 1e-10), abs=1e-8
            )

    def test_separable_mixtures_respect_bound(self):
        # random convex mixtures of product states are separable by construction
        rng = np.random.default_rng(11)
        for _ in range(300):
            k = rng.integers(1, 6)
            w = rng.dirichlet(np.ones(k))
            rho = np.zeros((4, 4), dtype=complex)
            for j in range(k):
                a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                psi = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
                rho += w[j] * qubit.ket_to_dm(psi)
            assert qubit.purity(rho) >= qubit.separable_min_purity(qubit.energy(rho)) - 1e-9

    def test_pure_circle(self):
        assert qubit.pure_state_epe_bound(1.0, 1.0)
        assert not qubit.pure_state_epe_bound(0.0, 0.1)
        assert qubit.pure_state_epe_bound(0.0, 0.0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_pure_states_inside_circle(self, seed):
        rho = random_state(seed, rank=1)
        C = qubit.concurrence(rho)
        E = qubit.energy(rho)
        assert (E - 1.0) ** 2 + C**2 <= 1.0 + 1e-10

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_schmidt_route_matches_spinflip_route(self, seed):
        rng = np.random.default_rng(seed)
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi /= np.linalg.norm(psi)
        a, b = qubit.schmidt_coefficients(psi)
        assert a**2 + b**2 == pytest.approx(1.0, abs=1e-12)
        assert a >= b >= 0.0
        # the spin-flip route loses ~sqrt(eps) on the near-zero eigenvalues
        assert qubit.pure_concurrence(psi) == pytest.approx(
            qubit.concurrence(qubit.ket_to_dm(psi)), abs=1e-7
        )

    def test_schmidt_spot_values(self):
        assert qubit.schmidt_coefficients(qubit.BELL_STATES["phi+"]) == pytest.approx(
            (np.sqrt(0.5), np.sqrt(0.5)), abs=1e-12
        )
        assert qubit.pure_concurrence([1, 0, 0, 0]) == 0.0
        with pytest.raises(InvalidStateError):
            qubit.schmidt_coefficients([1, 1, 0, 0])  # not normalized

    @given(st.integers(0, 10_000), st.integers(1, 4))
    @settings(max_examples=120, deadline=None)
    def test_mems_bound_on_random_states(self, seed, rank):
        rho = random_state(seed, rank=rank)
        bound = qubit.mems_concurrence_bound(min(qubit.purity(rho), 1.0))
        assert qubit.concurrence(rho) <= bound + 1e-9


class TestLocalUnitaries:
    def test_identity(self):
        params = qubit.LocalUnitaryParams(0.0, 0.0, (1, 0, 0), (0, 0, 1))
        rho = random_state(3)
        assert np.allclose(qubit.apply_local_unitary(rho, params), rho, atol=1e-15)

    def test_mems_energy_endpoints(self):
        x = (1.0, 0.0, 0.0)
        z = (0.0, 0.0, 1.0)
        raise_q1 = qubit.LocalUnitaryParams(np.pi / 2.0, 0.0, x, z)
        lower_q2 = qubit.LocalUnitaryParams(0.0, np.pi / 2.0, z, x)
        # rotating the ground qubit of the |01> component raises the energy
        rho = qubit.apply_local_unitary(qubit.mems_state(0.9), raise_q1)
        assert qubit.energy(rho) == pytest.approx(1.1, abs=1e-10)
        rho = qubit.apply_local_unitary(qubit.mems_state(0.9), lower_q2)
        assert qubit.energy(rho) == pytest.approx(0.9, abs=1e-10)
        rho = qubit.apply_local_unitary(qubit.mems_state(0.5), raise_q1)
        assert qubit.energy(rho) == pytest.approx(4.0 / 3.0, abs=1e-10)
        rho = qubit.apply_local_unitary(qubit.mems_state(0.5), lower_q2)
        assert qubit.energy(rho) == pytest.approx(2.0 / 3.0, abs=1e-10)

    @given(st.integers(0, 10_000), st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_mems_energy_formula(self, seed, C):
        params = random_params(seed)
        rho = qubit.apply_local_unitary(qubit.mems_state(C), params)
        assert qubit.energy(rho) == pytest.approx(
            qubit.mems_energy_after_unitary(C, params), abs=1e-10
        )

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_concurrence_purity_invariant(self, seed):
        rho = random_state(seed)
        params = random_params(seed + 1)
        rotated = qubit.apply_local_unitary(rho, params)
        assert qubit.concurrence(rotated) == pytest.approx(qubit.concurrence(rho), abs=1e-10)
        assert qubit.purity(rotated) == pytest.approx(qubit.purity(rho), abs=1e-10)

    def test_axis_validation(self):
        with pytest.raises(DomainError):
            qubit.LocalUnitaryParams(0.1, 0.1, (1, 1, 0), (0, 0, 1))


class TestEpePoint:
    def test_spot_values(self):
        pt = qubit.epe_point(PHI_PLUS)
        assert (pt.energy, pt.entanglement, pt.purity) == pytest.approx((1.0, 1.0, 1.0), abs=1e-12)
        pt = qubit.epe_point(MIXED)
        assert (pt.energy, pt.entanglement, pt.purity) == pytest.approx(
            (1.0, 0.0, 0.25), abs=1e-12
        )
        pt = qubit.epe_point(GROUND)
        assert (pt.energy, pt.entanglement, pt.purity) == pytest.approx((0.0, 0.0, 1.0), abs=1e-12)

    def test_measure_selection(self):
        assert qubit.epe_point(PHI_PLUS, "negativity").entanglement == pytest.approx(0.5, abs=1e-12)
        assert qubit.epe_point(PHI_PLUS, "logneg").entanglement == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(DomainError):
            qubit.epe_point(PHI_PLUS, "entropy")
