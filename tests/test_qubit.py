"""Two-qubit measures, extremal families and boundary curves."""

from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epe import qubit, sampling
from epe.errors import DomainError, InvalidStateError, InvariantViolation
import oracles

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


def takagi_oracle(A):
    """Concurrence from a 40-digit mpmath SVD of T = A^T (sy x sy) A, for rho = A A^dag."""
    with mpmath.workdps(40):
        Am = mpmath.matrix([[mpmath.mpc(complex(x)) for x in row] for row in A])
        T = Am.T * mpmath.matrix(np.kron(qubit.SIGMA_Y, qubit.SIGMA_Y).real.tolist()) * Am
        mu = sorted(mpmath.svd_c(T, compute_uv=False), reverse=True)
        return float(min(max(mu[0] - sum(mu[1:]), 0), 1))


def werner_factor(r):
    """A with A A^dag = werner_state(r): the Bell basis weighted by the root spectrum."""
    bell = [qubit.BELL_STATES[name] for name in ("phi+", "phi-", "psi+", "psi-")]
    weights = np.sqrt([(1.0 + 3.0 * r) / 4.0] + 3 * [(1.0 - r) / 4.0])
    return np.stack(bell, axis=1) * weights


def mems_factor(C):
    """A with A A^dag = mems_state(C), one column per term of the mixture."""
    e00, e01, e11 = np.eye(4, dtype=complex)[[0, 1, 3]]
    cols = [np.sqrt(C) * qubit.BELL_STATES["phi+"]]
    if C <= 2.0 / 3.0:
        cols += [np.sqrt(1.0 / 3.0) * e01, np.sqrt(1.0 / 3.0 - C / 2.0) * e00,
                 np.sqrt(1.0 / 3.0 - C / 2.0) * e11]
    else:
        cols.append(np.sqrt(1.0 - C) * e01)
    return np.stack(cols, axis=1)


class TestFactorConcurrence:
    """concurrence(rho, factor=A) against mpmath, and against the factor taken from eigh."""

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_sampled_states_match_mpmath(self, rank):
        rhos, factors = sampling._qubit_states_chunk(11, 0, 300, rank)
        assert factors.shape == (300, 4, rank)
        assert np.allclose(factors @ factors.conj().swapaxes(1, 2), rhos, rtol=0.0, atol=1e-15)
        want = np.array([takagi_oracle(A) for A in factors])
        got = qubit.concurrence(rhos, check=False, factor=factors)
        assert np.abs(got - want).max() <= 1e-15
        # without A the factor comes from eigh of the rounded rho = A A^dag
        assert np.abs(qubit.concurrence(rhos, check=False) - want).max() <= 1e-13

    @pytest.mark.parametrize("r", [0.0, 0.2, 1.0 / 3.0, 0.5, 0.8, 1.0])
    def test_werner_matches_mpmath(self, r):
        A = werner_factor(r)
        rho = qubit.werner_state(r)
        assert np.allclose(A @ A.conj().T, rho, rtol=0.0, atol=1e-15)
        got = qubit.concurrence(rho, factor=A)
        assert abs(got - takagi_oracle(A)) <= 1e-15
        assert got == pytest.approx(max(0.0, (3.0 * r - 1.0) / 2.0), abs=1e-15)

    @pytest.mark.parametrize("C", [0.0, 0.3, 2.0 / 3.0, 0.8, 1.0])
    def test_mems_matches_mpmath(self, C):
        A = mems_factor(C)
        rho = qubit.mems_state(C)
        assert np.allclose(A @ A.conj().T, rho, rtol=0.0, atol=1e-15)
        got = qubit.concurrence(rho, factor=A)
        assert abs(got - takagi_oracle(A)) <= 1e-15
        assert got == pytest.approx(C, abs=1e-15)

    @given(st.integers(0, 10_000), st.sampled_from([(), (5,), (64,), (2, 3)]),
           st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_drawn_factor_equals_eigh_factor(self, seed, lead, rank):
        rng = np.random.default_rng(seed)
        G = rng.standard_normal(lead + (4, rank)) + 1j * rng.standard_normal(lead + (4, rank))
        M = G @ G.conj().swapaxes(-1, -2)
        trace = np.trace(M, axis1=-2, axis2=-1).real[..., None, None]
        rhos, factors = M / trace, G / np.sqrt(trace)
        got = qubit.concurrence(rhos, factor=factors)
        want = qubit.concurrence(rhos)
        if not lead:
            assert type(got) is float
        else:
            assert got.shape == lead
        assert np.allclose(got, want, rtol=0.0, atol=1e-12)


def kernel_singular_values(M):
    """Jacobi singular values of an (N, k, k) stack, each row sorted decreasingly."""
    columns = np.ascontiguousarray(np.asarray(M, dtype=complex).transpose(2, 1, 0))
    return np.sort(qubit._jacobi_singular_values(columns), axis=-1)[:, ::-1]


def wootters_matrix(A):
    """T = A^T (sy x sy) A by matrix products, independent of the kernel's build."""
    return A.T @ np.kron(qubit.SIGMA_Y, qubit.SIGMA_Y) @ A


def random_complex_symmetric(seed, k=4):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    return X + X.T


GRADING = 10.0 ** -np.arange(0, 100, 25)


class TestJacobiKernel:
    """The batched one-sided Jacobi SVD behind concurrence(rho, factor=A)."""

    @given(st.integers(0, 10_000), st.sampled_from([(5,), (64,), (4096,), (2, 3)]),
           st.sampled_from([2, 3, 4]))
    @settings(max_examples=30, deadline=None)
    def test_alone_equals_in_a_stack_bitwise(self, seed, lead, rank):
        rng = np.random.default_rng(seed)
        G = rng.standard_normal(lead + (4, rank)) + 1j * rng.standard_normal(lead + (4, rank))
        G /= np.sqrt((np.abs(G) ** 2).sum(axis=(-2, -1)))[..., None, None]
        rhos = G @ G.conj().swapaxes(-1, -2)
        stacked = qubit.concurrence(rhos, check=False, factor=G)
        assert stacked.shape == lead
        flat_rhos, flat_G, flat_C = rhos.reshape(-1, 4, 4), G.reshape(-1, 4, rank), stacked.ravel()
        for i in rng.choice(flat_C.size, size=min(flat_C.size, 64), replace=False):
            assert qubit.concurrence(flat_rhos[i], check=False, factor=flat_G[i]) == flat_C[i]

    ADVERSARIAL = {
        "multiple of the identity": 0.37 * np.eye(4),
        "Werner r = 1/3": wootters_matrix(werner_factor(1.0 / 3.0)),
        "MEMS C = 0": wootters_matrix(mems_factor(0.0)),
        "zero column": random_complex_symmetric(1) * (np.arange(4) != 2),
        "diagonal": np.diag([0.2, -0.7j, 1e-3, 0.45]),
        # entries d_j d_l S_jl from about 1 down to about 1e-150
        "graded 1 to 1e-150": random_complex_symmetric(2) * np.outer(GRADING, GRADING),
    }

    @pytest.mark.parametrize("name", sorted(ADVERSARIAL))
    def test_adversarial_matrices_match_lapack(self, name):
        M = self.ADVERSARIAL[name]
        want = np.linalg.svd(M, compute_uv=False)
        got = kernel_singular_values(M[None])[0]
        assert np.abs(got - want).max() <= 4.0 * np.finfo(float).eps * want[0]

    def test_adversarial_matrices_converge_alone_and_stacked(self):
        stack = np.stack([self.ADVERSARIAL[name] for name in sorted(self.ADVERSARIAL)])
        alone = np.concatenate([kernel_singular_values(M[None]) for M in stack])
        assert np.array_equal(kernel_singular_values(stack), alone)

    def test_sweep_cap_raises_instead_of_returning(self, monkeypatch):
        monkeypatch.setattr(qubit, "JACOBI_MAX_SWEEPS", 1)
        # a diagonal matrix needs no rotation, so one sweep settles it
        got = kernel_singular_values(self.ADVERSARIAL["diagonal"][None])[0]
        assert np.abs(got - [0.7, 0.45, 0.2, 1e-3]).max() <= 4.0 * np.finfo(float).eps * 0.7
        with pytest.raises(InvariantViolation, match="in 1 sweeps"):
            kernel_singular_values(random_complex_symmetric(3)[None])
        rhos, factors = sampling._qubit_states_chunk(11, 0, 8, 4)
        with pytest.raises(InvariantViolation):
            qubit.concurrence(rhos, check=False, factor=factors)


def jacobi_concurrence(rho, A):
    """concurrence(rho, factor=A) with no state settled: the Jacobi kernel on every matrix."""
    with mock.patch.object(qubit, "PPT_DET_MARGIN", np.inf):
        return qubit.concurrence(rho, check=False, factor=A)


def flattened_factors(seed, n, k, flatten):
    """(rhos, factors) of n rank-k states whose spectra are pulled toward 1/k by
    `flatten` in [0, 1], so that many of them lie near the PPT boundary."""
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, 4, k)) + 1j * rng.standard_normal((n, 4, k))
    spectrum = (1.0 - flatten) * rng.dirichlet(np.ones(k), size=n) + flatten / k
    A = np.linalg.qr(G)[0] * np.sqrt(spectrum)[:, None, :]
    return A @ A.conj().swapaxes(-1, -2), A


def bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


def mixed_product_factor():
    """A with A A^dag = rho_1 x rho_2 for two full-rank single-qubit states."""
    rho_1 = np.array([[0.7, 0.2 + 0.1j], [0.2 - 0.1j, 0.3]])
    rho_2 = np.array([[0.45, -0.1j], [0.1j, 0.55]])
    return np.kron(np.linalg.cholesky(rho_1), np.linalg.cholesky(rho_2))


class TestPptSettle:
    """States with det(rho^Gamma) > PPT_DET_MARGIN get C = 0 without the Jacobi kernel."""

    @given(st.integers(0, 2**32 - 1), st.sampled_from([3, 4]), st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_settle_keeps_the_kernel_bits(self, seed, k, flatten):
        sampled = sampling._qubit_states_chunk(seed, 0, 128, k)
        for rhos, A in (sampled, flattened_factors(seed, 128, k, flatten)):
            got = qubit.concurrence(rhos, check=False, factor=A)
            want = jacobi_concurrence(rhos, A)
            assert np.array_equal(bits(got), bits(want))
            det = qubit._ppt_determinant(rhos)
            pt = qubit.partial_transpose(rhos)
            assert np.abs(det - np.linalg.det(pt).real).max() <= 1e-15
            settled = det > qubit.PPT_DET_MARGIN
            # every settled state is PPT, and its kernel value is exactly +0.0
            assert np.all(np.linalg.eigvalsh(pt[settled])[:, 0] > 0.0)
            assert np.array_equal(bits(want[settled]), bits(np.zeros(settled.sum())))

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_only_four_column_factors_take_the_test(self, monkeypatch, k):
        # at k = 3 the test settles about 7% of states, too few to pay for it
        calls = []
        real = qubit._ppt_determinant

        def counted(rho):
            calls.append(len(rho))
            return real(rho)

        monkeypatch.setattr(qubit, "_ppt_determinant", counted)
        rhos, A = sampling._qubit_states_chunk(7, 0, 64, k)
        qubit.concurrence(rhos, check=False, factor=A)
        assert calls == ([64] if k == 4 else [])

    BOUNDARY = {
        # (factor, state, settled)
        "pure product": (np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex), GROUND, False),
        "mixed product": (mixed_product_factor(), None, True),
        "I/4": (np.eye(4, dtype=complex) / 2.0, MIXED, True),
        "Werner r = 0.2": (werner_factor(0.2), qubit.werner_state(0.2), True),
        "Werner r = 1/3 - 1e-9": (werner_factor(1.0 / 3.0 - 1e-9),
                                  qubit.werner_state(1.0 / 3.0 - 1e-9), True),
        "Werner r = 1/3": (werner_factor(1.0 / 3.0), qubit.werner_state(1.0 / 3.0), False),
        "MEMS C = 0": (mems_factor(0.0), qubit.mems_state(0.0), False),
    }

    @pytest.mark.parametrize("name", sorted(BOUNDARY))
    def test_boundary_states(self, name):
        A, rho, settled = self.BOUNDARY[name]
        if rho is None:
            rho = A @ A.conj().T
        assert A.shape == (4, 4)
        assert (qubit._ppt_determinant(rho)[0] > qubit.PPT_DET_MARGIN) == settled
        got = qubit.concurrence(rho, factor=A)
        assert bits(got) == bits(jacobi_concurrence(rho, A)) == bits(0.0)

    def test_checked_factor_must_give_rho(self):
        A, rho = werner_factor(0.5), qubit.werner_state(0.5)
        assert qubit.concurrence(rho, factor=A * (1.0 + 1e-14)) == pytest.approx(0.25, abs=1e-13)
        bad = {
            "another state": (qubit.werner_state(0.2), A),
            "scaled past the tolerance": (rho, A * (1.0 + 1e-11)),
            "a stack for one state": (rho, np.stack([A, A])),
            "three rows": (rho, A[:3]),
        }
        for name, (state, factor) in bad.items():
            with pytest.raises(InvalidStateError):
                qubit.concurrence(state, factor=factor)
        # unchecked callers (the sampler) pay for no comparison, and an
        # inconsistent pair mixes two states: the separable rho settles at 0,
        # where A alone gives 1/4
        assert qubit.concurrence(qubit.werner_state(0.2), check=False, factor=A) == 0.0


def partial_transpose_oracle(rho):
    """rho^Gamma by explicit indices: <a b| rho^Gamma |c d> = <a d| rho |c b>."""
    pt = np.empty((4, 4), dtype=complex)
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for d in range(2):
                    pt[2 * a + b, 2 * c + d] = rho[2 * a + d, 2 * c + b]
    return pt


STACKED_MEASURES = (qubit.negativity, qubit.log_negativity, qubit.purity, qubit.energy)


class TestStackedMeasures:
    @given(st.integers(0, 10_000), st.sampled_from([(), (1,), (5,), (64,), (2, 3)]))
    @settings(max_examples=40, deadline=None)
    def test_stack_equals_per_matrix_calls_bitwise(self, seed, lead):
        n = int(np.prod(lead, dtype=int))
        rhos = np.stack([random_state(seed + k, rank=1 + (seed + k) % 4) for k in range(n)])
        rhos = rhos.reshape(lead + (4, 4))
        for fn in STACKED_MEASURES:
            stacked = fn(rhos)
            if not lead:
                assert type(stacked) is float
                continue
            assert stacked.shape == lead
            for idx in np.ndindex(lead):
                assert stacked[idx] == fn(rhos[idx])
        pt = qubit.partial_transpose(rhos)
        assert pt.shape == rhos.shape
        for idx in np.ndindex(lead):
            assert np.array_equal(pt[idx], qubit.partial_transpose(rhos[idx]))

    @given(st.integers(0, 10_000), st.integers(1, 4))
    @example(13, 4)  # a separable state whose ||rho^Gamma||_1 rounds to 1 - 1e-16
    @settings(max_examples=60, deadline=None)
    def test_measures_match_independent_oracles(self, seed, rank):
        rho = random_state(seed, rank)
        pt = partial_transpose_oracle(rho)
        assert np.array_equal(qubit.partial_transpose(rho), pt)
        eigs = np.linalg.eigvalsh(pt)
        assert qubit.negativity(rho) == pytest.approx(-eigs[eigs < 0.0].sum(), abs=1e-12)
        assert qubit.negativity(rho) >= 0.0 and qubit.log_negativity(rho) >= 0.0
        assert qubit.log_negativity(rho) == pytest.approx(
            max(np.log2(np.abs(eigs).sum()), 0.0), abs=1e-12
        )
        assert qubit.purity(rho) == pytest.approx((np.abs(rho) ** 2).sum(), abs=1e-12)
        want = sum(qubit.EXCITATION_NUMBER[i, i] * rho[i, i].real for i in range(4))
        assert qubit.energy(rho) == pytest.approx(want, abs=1e-12)

    def test_stack_validation_rejects_any_bad_member(self):
        bad = np.diag([0.7, 0.5, -0.1, -0.1]).astype(complex)
        for fn in STACKED_MEASURES:
            with pytest.raises(InvalidStateError):
                fn(np.stack([PHI_PLUS, MIXED, bad]))


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
        for fn in (qubit.mems_purity, qubit.mems_energy_range):
            with pytest.raises(DomainError):
                fn(np.array([0.5, 1.1]))
        with pytest.raises(DomainError):
            qubit.mems_concurrence_bound(1.5)

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
    @example([0.0, 2.0 / 3.0, np.nextafter(2.0 / 3.0, 1.0), 1.0])
    @settings(max_examples=40, deadline=None)
    def test_array_calls_equal_per_point_calls_bitwise(self, Cs):
        C = np.array(Cs)
        assert qubit.mems_purity(C).tolist() == [qubit.mems_purity(c) for c in Cs]
        lo, hi = qubit.mems_energy_range(C)
        assert [lo.tolist(), hi.tolist()] == [list(x) for x in zip(
            *[qubit.mems_energy_range(c) for c in Cs])]
        assert type(qubit.mems_purity(Cs[0])) is float

    @pytest.mark.parametrize("C", [0.3, 2.0 / 3.0, 0.9])
    def test_maximality_at_fixed_purity(self, C):
        # no random state at the MEMS purity may beat the MEMS concurrence
        rng = np.random.default_rng(2024)
        P = qubit.mems_purity(C)
        rhos = np.stack([oracles.random_state_with_purity(P, rng) for _ in range(10_000)])
        assert qubit.concurrence(rhos, check=False).max() <= C + 1e-9


class TestWerner:
    def test_endpoints(self):
        assert np.allclose(qubit.werner_state(0.0), MIXED)
        assert np.allclose(qubit.werner_state(1.0), PHI_PLUS)

    def test_domain(self):
        with pytest.raises(DomainError):
            qubit.werner_state(1.5)


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
        assert oracles.pure_state_epe_bound(1.0, 1.0)
        assert not oracles.pure_state_epe_bound(0.0, 0.1)
        assert oracles.pure_state_epe_bound(0.0, 0.0)

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
        a, b = oracles.schmidt_coefficients(psi)
        assert a**2 + b**2 == pytest.approx(1.0, abs=1e-12)
        assert a >= b >= 0.0
        u, v = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        product = np.kron(u / np.linalg.norm(u), v / np.linalg.norm(v))
        for ket in (psi, product):
            assert oracles.pure_concurrence(ket) == pytest.approx(
                qubit.concurrence(qubit.ket_to_dm(ket)), abs=1e-14
            )

    def test_schmidt_spot_values(self):
        assert oracles.schmidt_coefficients(qubit.BELL_STATES["phi+"]) == pytest.approx(
            (np.sqrt(0.5), np.sqrt(0.5)), abs=1e-12
        )
        assert oracles.pure_concurrence([1, 0, 0, 0]) == 0.0
        with pytest.raises(InvalidStateError):
            oracles.schmidt_coefficients([1, 1, 0, 0])  # not normalized

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
        pt = oracles.epe_point(PHI_PLUS)
        assert (pt.energy, pt.entanglement, pt.purity) == pytest.approx((1.0, 1.0, 1.0), abs=1e-12)
        pt = oracles.epe_point(MIXED)
        assert (pt.energy, pt.entanglement, pt.purity) == pytest.approx(
            (1.0, 0.0, 0.25), abs=1e-12
        )
        pt = oracles.epe_point(GROUND)
        assert (pt.energy, pt.entanglement, pt.purity) == pytest.approx((0.0, 0.0, 1.0), abs=1e-12)

    def test_measure_selection(self):
        pt = oracles.epe_point(PHI_PLUS, "negativity")
        assert pt.entanglement == pytest.approx(0.5, abs=1e-12)
        assert oracles.epe_point(PHI_PLUS, "logneg").entanglement == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(DomainError):
            oracles.epe_point(PHI_PLUS, "entropy")
