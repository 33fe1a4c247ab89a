"""Jaynes-Cummings transfer: inputs, exact evolution and analytic cross-checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epe import jc, qubit
from epe.errors import DomainError, TruncationError

BELL_PSI_PLUS = qubit.ket_to_dm(qubit.BELL_STATES["psi+"])

# fixed point of x = 1 + exp(-x), where the mean photon number equals 1
XSTAR = 1.2784645427610737


def fixed_point_oracle():
    x = 1.0
    for _ in range(200):
        x = 1.0 + np.exp(-x)
    return x


class TestInputs:
    def test_single_photon(self):
        state = jc.build_input(jc.SinglePhoton())
        assert state.norm() == pytest.approx(1.0, abs=1e-12)
        assert jc.input_entropy(jc.SinglePhoton()) == pytest.approx(np.log(2.0), abs=1e-15)
        assert jc.input_energy(jc.SinglePhoton()) == 1.0
        # support is exactly |01> + |10> on the field, atoms in gg
        amp = state.amps
        assert amp[0, 1, 0, 0] == pytest.approx(1.0 / np.sqrt(2.0))
        assert amp[1, 0, 0, 0] == pytest.approx(1.0 / np.sqrt(2.0))
        assert np.count_nonzero(amp) == 2

    def test_squeezed_vacuum_limit(self):
        state = jc.build_input(jc.TwoModeSqueezed(gamma=0.0))
        assert abs(state.amps[0, 0, 0, 0]) == pytest.approx(1.0)
        assert np.count_nonzero(state.amps) == 1

    def test_coherent_mean_photon_number(self):
        x = fixed_point_oracle()
        assert x == pytest.approx(XSTAR, abs=1e-14)
        spec = jc.EntangledCoherent(alpha=np.sqrt(x))
        assert jc.input_energy(spec) == pytest.approx(1.0, abs=1e-4)

    def test_truncation_errors(self):
        with pytest.raises(TruncationError) as err:
            jc.build_input(jc.NPhoton(n=5), n_max=3)
        assert err.value.required_n_max == 5
        with pytest.raises(TruncationError) as err:
            jc.build_input(jc.TwoModeSqueezed(gamma=0.9), n_max=20)
        assert err.value.required_n_max > 20

    def test_auto_truncation(self):
        assert jc.resolve_n_max(jc.SinglePhoton()) == jc.DEFAULT_N_MAX
        assert jc.resolve_n_max(jc.NPhoton(n=90)) == 90
        # geometric tail gamma^(2(m+1)) <= 1e-12
        m = jc.resolve_n_max(jc.TwoModeSqueezed(gamma=0.9))
        assert 0.9 ** (2 * (m + 1)) <= 1e-12 < 0.9 ** (2 * m)

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            jc.NPhoton(n=0)
        with pytest.raises(DomainError):
            jc.TwoModeSqueezed(gamma=1.0)


class TestEntropy:
    def test_squeezed_closed_form(self):
        spec = jc.TwoModeSqueezed(gamma=0.5)
        assert jc.input_energy(spec) == pytest.approx(2.0 / 3.0, abs=1e-15)
        # frozen from the Schmidt spectrum p_n = (1 - g^2) g^(2n)
        assert jc.input_entropy(spec) == pytest.approx(0.7497801928250777, abs=1e-12)

    def test_entropy_is_nonnegative_flip_of_naive_form(self):
        # the naive ln(1 - g^2) + E ln(g) expression is the negative of the
        # true Schmidt entropy; make sure we return the nonnegative one
        for g in (0.2, 0.5, 0.8):
            spec = jc.TwoModeSqueezed(gamma=g)
            naive = np.log(1.0 - g**2) + jc.input_energy(spec) * np.log(g)
            assert naive < 0.0
            assert jc.input_entropy(spec) == pytest.approx(-naive, abs=1e-12)
            assert jc.input_entropy(spec) > 0.0

    @pytest.mark.parametrize(
        "spec",
        [
            jc.SinglePhoton(),
            jc.NPhoton(n=3),
            jc.EntangledCoherent(alpha=1.1),
            jc.EntangledCoherent(alpha=0.4 + 0.3j),
            jc.TwoModeSqueezed(gamma=0.6),
        ],
    )
    def test_matches_schmidt_spectrum_oracle(self, spec):
        state = jc.build_input(spec)
        assert jc.input_entropy(spec) == pytest.approx(jc.schmidt_entropy(state), abs=1e-9)

    def test_entropy_range_of_coherent_input(self):
        assert jc.input_entropy(jc.EntangledCoherent(alpha=1e-6)) == pytest.approx(0.0, abs=1e-9)
        assert jc.input_entropy(jc.EntangledCoherent(alpha=6.0)) == pytest.approx(
            np.log(2.0), abs=1e-9
        )


class TestEvolve:
    def test_zero_time_is_identity(self):
        state = jc.build_input(jc.TwoModeSqueezed(gamma=0.4))
        assert np.array_equal(jc.evolve(state, 0.0).amps, state.amps)

    def test_single_pair_rotation(self):
        # |g, 1> -> cos(lt) |g, 1> - i sin(lt) |e, 0> in the first pair
        state = jc.build_input(jc.SinglePhoton())
        out = jc.evolve(state, 0.7).amps
        c, s = np.cos(0.7), np.sin(0.7)
        assert out[1, 0, 0, 0] == pytest.approx(c / np.sqrt(2.0))
        assert out[0, 0, 1, 0] == pytest.approx(-1j * s / np.sqrt(2.0))

    def test_single_photon_bell_transfer(self):
        state = jc.evolve(jc.build_input(jc.SinglePhoton()), np.pi / 2.0)
        # the photon is fully absorbed: field in vacuum, atoms maximally entangled
        field_weight = np.abs(state.amps[:, :, 0, 0]) ** 2
        assert field_weight.sum() == pytest.approx(0.0, abs=1e-24)
        rho = jc.reduce_to_qubits(state)
        fidelity = np.real(np.trace(rho @ BELL_PSI_PLUS))
        assert fidelity >= 1.0 - 1e-12
        assert qubit.purity(rho) == pytest.approx(1.0, abs=1e-12)

    @given(st.integers(0, 10_000), st.floats(0.0, 12.0))
    @settings(max_examples=40, deadline=None)
    def test_norm_and_sector_conservation(self, seed, lam_t):
        rng = np.random.default_rng(seed)
        spec = jc.TwoModeSqueezed(gamma=float(rng.uniform(0.0, 0.7)))
        state = jc.build_input(spec)
        evolved = jc.evolve(state, lam_t)
        assert evolved.norm() == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(jc.sector_norms(evolved), jc.sector_norms(state), atol=1e-12)

    def test_single_photon_periodicity(self):
        state = jc.build_input(jc.SinglePhoton())
        for t in (0.3, 1.1, 2.0):
            rho_a = jc.reduce_to_qubits(jc.evolve(state, t))
            rho_b = jc.reduce_to_qubits(jc.evolve(state, t + np.pi))
            assert np.abs(rho_a - rho_b).max() < 1e-10


class TestReduce:
    def test_vacuum_product(self):
        state = jc.build_input(jc.TwoModeSqueezed(gamma=0.0))
        rho = jc.reduce_to_qubits(jc.evolve(state, 1.3))
        assert np.allclose(rho, qubit.ket_to_dm([1, 0, 0, 0]), atol=1e-12)

    def test_n_photon_no_transfer(self):
        state = jc.build_input(jc.NPhoton(n=2))
        rng = np.random.default_rng(0)
        for t in rng.uniform(0.0, 12.0, size=25):
            rho = jc.reduce_to_qubits(jc.evolve(state, t))
            assert qubit.concurrence(rho) < 1e-12


class TestAnalyticForms:
    def test_single_photon_matches_numeric(self):
        state = jc.build_input(jc.SinglePhoton())
        for t in (0.0, 0.4, np.pi / 2.0, 2.5):
            num = jc.reduce_to_qubits(jc.evolve(state, t))
            ana = jc.analytic_qubit_state(jc.SinglePhoton(), t)
            assert np.abs(num - ana).max() < 1e-10

    def test_n_photon_matches_numeric(self):
        for n in (1, 2, 4):
            spec = jc.NPhoton(n=n)
            state = jc.build_input(spec)
            for t in (0.3, 1.7):
                num = jc.reduce_to_qubits(jc.evolve(state, t))
                ana = jc.analytic_qubit_state(spec, t)
                assert np.abs(num - ana).max() < 1e-10

    def test_coherent_series_matches_numeric(self):
        for alpha in (0.5, 1.0, np.sqrt(XSTAR), 1.8, 0.6 + 0.8j):
            spec = jc.EntangledCoherent(alpha=alpha)
            state = jc.build_input(spec, 40)
            for t in (0.0, 0.9, np.pi / 2.0, 2.2):
                num = jc.reduce_to_qubits(jc.evolve(state, t))
                ana = jc.analytic_qubit_state(spec, t, 40)
                assert np.abs(num - ana).max() < 1e-10

    def test_coherent_zero_time_is_separable(self):
        rho = jc.analytic_qubit_state(jc.EntangledCoherent(alpha=1.0), 0.0)
        assert qubit.concurrence(rho) == 0.0
        assert rho[1, 2] == 0.0

    def test_coherent_concurrence_closed_form(self):
        # C = 2z with z = |a|^2 e^{-|a|^2} sin^2(lt) / (2 (1 + e^{-|a|^2}));
        # at the fixed point |a|^2 = XSTAR this peaks at exp(-XSTAR)
        for a2, t in ((0.5, 0.8), (XSTAR, np.pi / 2.0), (2.5, 1.9)):
            spec = jc.EntangledCoherent(alpha=np.sqrt(a2))
            rho = jc.reduce_to_qubits(jc.evolve(jc.build_input(spec), t))
            z = a2 * np.exp(-a2) * np.sin(t) ** 2 / (2.0 * (1.0 + np.exp(-a2)))
            assert qubit.concurrence(rho) == pytest.approx(2.0 * z, abs=1e-12)
        peak = np.exp(-XSTAR)
        spec = jc.EntangledCoherent(alpha=np.sqrt(XSTAR))
        rho = jc.reduce_to_qubits(jc.evolve(jc.build_input(spec), np.pi / 2.0))
        assert qubit.concurrence(rho) == pytest.approx(peak, abs=1e-10)

    def test_squeezed_series_matches_numeric(self):
        devs = jc.squeezed_convention_deviation(0.6, np.linspace(0.1, 6.0, 9))
        assert devs["double"] < 1e-10
        # the halved-phase variant is inconsistent with the evolution
        assert devs["half"] > 1e-2

    def test_squeezed_x_state_concurrence_identity(self):
        # C of the X state equals max(0, 2|x| - 2b) for this output family
        spec = jc.TwoModeSqueezed(gamma=0.7)
        state = jc.build_input(spec)
        for t in (0.5, 1.3, 4.6):
            rho = jc.reduce_to_qubits(jc.evolve(state, t))
            direct = max(0.0, 2.0 * abs(rho[0, 3]) - 2.0 * rho[1, 1].real)
            assert qubit.concurrence(rho) == pytest.approx(direct, abs=1e-10)

    def test_truncation_convergence(self):
        spec = jc.TwoModeSqueezed(gamma=0.9)
        base = jc.resolve_n_max(spec)
        for t in (0.8, 4.6):
            c1 = qubit.concurrence(jc.reduce_to_qubits(jc.evolve(jc.build_input(spec, base), t)))
            c2 = qubit.concurrence(
                jc.reduce_to_qubits(jc.evolve(jc.build_input(spec, 2 * base), t))
            )
            assert abs(c1 - c2) < 1e-10


_INPUT_SPECS = st.one_of(
    st.just(jc.SinglePhoton()),
    st.integers(1, 6).map(lambda n: jc.NPhoton(n=n)),
    st.builds(
        lambda r, phi: jc.EntangledCoherent(alpha=r * np.exp(1j * phi)),
        st.floats(0.0, 2.0),
        st.floats(0.0, 2.0 * np.pi),
    ),
    st.floats(0.0, 0.8).map(lambda g: jc.TwoModeSqueezed(gamma=g)),
)


class TestReducedStates:
    @given(
        _INPUT_SPECS,
        st.integers(0, 6),
        st.lists(st.floats(0.0, 30.0), max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_evolve_oracle(self, spec, extra, times):
        n_max = jc.required_n_max(spec) + extra
        state = jc.build_input(spec, n_max)
        times = [0.0, 4.0 * np.pi + 0.3, *times]
        rhos = jc.reduced_states(state, times)
        assert rhos.shape == (len(times), 4, 4)
        for t, rho in zip(times, rhos):
            oracle = jc.reduce_to_qubits(jc.evolve(state, t))
            assert np.abs(rho - oracle).max() <= 1e-13

    def test_rejects_excited_atom(self):
        state = jc.build_input(jc.SinglePhoton())
        state.amps[0, 0, 1, 0] = 0.1
        with pytest.raises(DomainError):
            jc.reduced_states(state, [0.0, 1.0])
        evolved = jc.evolve(jc.build_input(jc.SinglePhoton()), 0.5)
        with pytest.raises(DomainError):
            jc.reduced_states(evolved, [0.0])


class TestMaxTransfer:
    def test_single_photon(self):
        result = jc.max_transfer(jc.SinglePhoton(), np.linspace(0.0, 4.0 * np.pi, 500))
        assert result.concurrence == pytest.approx(1.0, abs=1e-10)
        assert result.lambda_t == pytest.approx(np.pi / 2.0, abs=1e-6)
        assert result.purity == pytest.approx(1.0, abs=1e-10)
        assert result.input_energy == 1.0

    def test_n_photon_stays_separable(self):
        result = jc.max_transfer(jc.NPhoton(n=3), np.linspace(0.0, 4.0 * np.pi, 300))
        assert result.concurrence == 0.0
        assert result.lambda_t == 0.0  # earliest tie wins

    def test_flat_run_is_one_refinement_candidate(self, monkeypatch):
        # C vanishes on the whole grid, which must not refine every point
        calls = []
        real = jc.minimize_scalar

        def counting(*args, **kwargs):
            calls.append(kwargs["bounds"])
            return real(*args, **kwargs)

        monkeypatch.setattr(jc, "minimize_scalar", counting)
        result = jc.max_transfer(jc.NPhoton(n=3), np.linspace(0.0, 4.0 * np.pi, 300))
        assert len(calls) <= 2
        assert result.concurrence == 0.0
        assert result.lambda_t == 0.0

    def test_empty_grid(self):
        with pytest.raises(DomainError):
            jc.max_transfer(jc.SinglePhoton(), [])

    def test_non_monotone_grid(self):
        with pytest.raises(DomainError):
            jc.max_transfer(jc.SinglePhoton(), [0.0, 1.0, 0.5])
