"""Jaynes-Cummings transfer: inputs, exact evolution and analytic cross-checks."""

import time
import types

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epe import jc, qubit
from epe.errors import DomainError, InvariantViolation, TruncationError
import oracles

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
        assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)
        assert jc.input_entropy(jc.SinglePhoton()) == pytest.approx(np.log(2.0), abs=1e-15)
        assert jc.input_energy(jc.SinglePhoton()) == 1.0
        # support is exactly |01> + |10> on the field, atoms in gg
        amp = state
        assert amp[0, 1, 0, 0] == pytest.approx(1.0 / np.sqrt(2.0))
        assert amp[1, 0, 0, 0] == pytest.approx(1.0 / np.sqrt(2.0))
        assert np.count_nonzero(amp) == 2

    def test_single_photon_is_the_one_photon_input(self):
        spec = jc.SinglePhoton()
        assert isinstance(spec, jc.NPhoton) and spec.n == 1
        with pytest.raises(TypeError):
            jc.SinglePhoton(n=2)
        one = jc.NPhoton(n=1)
        assert np.array_equal(jc.build_input(spec), jc.build_input(one))
        assert jc.required_n_max(spec) == 1
        for t in (0.0, 0.7, np.pi / 2.0):
            assert np.array_equal(jc.analytic_qubit_state(spec, t), jc.analytic_qubit_state(one, t))

    def test_squeezed_vacuum_limit(self):
        state = jc.build_input(jc.TwoModeSqueezed(gamma=0.0))
        assert abs(state[0, 0, 0, 0]) == pytest.approx(1.0)
        assert np.count_nonzero(state) == 1

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
        # the default is the required truncation itself, with no floor
        assert jc.resolve_n_max(jc.SinglePhoton()) == 1
        assert jc.resolve_n_max(jc.NPhoton(n=90)) == 90
        for gamma, n_max in [(0.4, 15), (0.6, 27), (0.8, 61), (0.95, 269)]:
            assert jc.resolve_n_max(jc.TwoModeSqueezed(gamma=gamma)) == n_max
        assert jc.resolve_n_max(jc.EntangledCoherent(alpha=1.0)) == 14
        # geometric tail gamma^(2(m+1)) <= 1e-12
        m = jc.resolve_n_max(jc.TwoModeSqueezed(gamma=0.9))
        assert 0.9 ** (2 * (m + 1)) <= 1e-12 < 0.9 ** (2 * m)

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            jc.NPhoton(n=0)
        with pytest.raises(DomainError):
            jc.TwoModeSqueezed(gamma=1.0)

    @pytest.mark.parametrize("gamma", ["0.5", 0.5 + 0j, None, float("nan"), -0.1])
    def test_squeezing_parameter_must_be_real_and_in_the_unit_interval(self, gamma):
        with pytest.raises(DomainError, match=r"must lie in \[0, 1\)"):
            jc.TwoModeSqueezed(gamma)

    @pytest.mark.parametrize("alpha", ["1", None, [1.0]])
    def test_coherent_amplitude_must_be_a_number(self, alpha):
        with pytest.raises(DomainError, match="must be a number"):
            jc.max_transfer(jc.EntangledCoherent(alpha))

    def test_specs_take_numpy_and_integer_parameters(self):
        assert jc.required_n_max(jc.TwoModeSqueezed(np.float64(0.6))) == 27
        assert jc.required_n_max(jc.TwoModeSqueezed(0)) == 1
        assert jc.required_n_max(jc.EntangledCoherent(np.complex128(0.6 + 0.8j))) == 14
        assert jc.required_n_max(jc.EntangledCoherent(1)) == 14

    @pytest.mark.parametrize("n", [1.5, 2.0, "2", None])
    def test_photon_number_must_be_an_integer(self, n):
        with pytest.raises(DomainError, match="positive integer"):
            jc.NPhoton(n)

    def test_photon_number_takes_any_integer_as_int(self):
        spec = jc.NPhoton(np.int64(3))
        assert type(spec.n) is int and spec.n == 3

    @pytest.mark.parametrize("spec", [
        jc.SinglePhoton(), jc.NPhoton(n=3), jc.EntangledCoherent(alpha=0.5),
        jc.TwoModeSqueezed(gamma=0.25),
    ])
    def test_repr_is_a_call_that_rebuilds_the_spec(self, spec):
        again = eval(repr(spec), {name: getattr(jc, name) for name in dir(jc)})
        assert type(again) is type(spec) and repr(again) == repr(spec)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"), complex(0.0, float("nan"))])
    def test_non_finite_coherent_amplitude_raises(self, alpha):
        with pytest.raises(DomainError, match="must be finite"):
            jc.max_transfer(jc.EntangledCoherent(alpha))

    @pytest.mark.parametrize("alpha", [1e154, 1e155, 1e300, complex(1e200, 1e200)])
    def test_huge_coherent_amplitude_is_above_the_cap(self, alpha):
        # |alpha|^2 overflows above about 1.34e154; |alpha| is compared first
        with pytest.raises(DomainError, match=f"cap n_max={jc.MAX_N_MAX}"):
            jc.required_n_max(jc.EntangledCoherent(alpha))

    def test_unknown_spec_raises(self):
        with pytest.raises(DomainError):
            jc.field_support(object())
        with pytest.raises(DomainError):
            jc.analytic_qubit_state(object(), 0.0)


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
        assert jc.input_entropy(spec) == pytest.approx(oracles.schmidt_entropy(state), abs=1e-9)

    def test_vacuum_coherent_input_reads_plus_zero(self):
        entropy = jc.input_entropy(jc.EntangledCoherent(alpha=0.0))
        assert entropy == 0.0 and not np.signbit(entropy)

    @pytest.mark.parametrize("alpha", [1e155, 1e300, complex(1e200, 1e200)])
    def test_huge_coherent_amplitude_reads_the_limits(self, alpha):
        # |alpha|^2 overflows a float: the energy reads inf and the two
        # branches are orthogonal, so the entropy reads ln 2
        spec = jc.EntangledCoherent(alpha)
        assert jc.input_energy(spec) == np.inf
        assert jc.input_entropy(spec) == pytest.approx(np.log(2.0), rel=1e-15)

    def test_entropy_range_of_coherent_input(self):
        assert jc.input_entropy(jc.EntangledCoherent(alpha=1e-6)) == pytest.approx(0.0, abs=1e-9)
        assert jc.input_entropy(jc.EntangledCoherent(alpha=6.0)) == pytest.approx(
            np.log(2.0), abs=1e-9
        )


class TestEvolve:
    def test_zero_time_is_identity(self):
        state = jc.build_input(jc.TwoModeSqueezed(gamma=0.4))
        assert np.array_equal(jc.evolve(state, 0.0), state)

    def test_single_pair_rotation(self):
        # |g, 1> -> cos(lt) |g, 1> - i sin(lt) |e, 0> in the first pair
        state = jc.build_input(jc.SinglePhoton())
        out = jc.evolve(state, 0.7)
        c, s = np.cos(0.7), np.sin(0.7)
        assert out[1, 0, 0, 0] == pytest.approx(c / np.sqrt(2.0))
        assert out[0, 0, 1, 0] == pytest.approx(-1j * s / np.sqrt(2.0))

    def test_single_photon_bell_transfer(self):
        state = jc.evolve(jc.build_input(jc.SinglePhoton()), np.pi / 2.0)
        # the photon is fully absorbed: field in vacuum, atoms maximally entangled
        field_weight = np.abs(state[:, :, 0, 0]) ** 2
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
        assert np.linalg.norm(evolved) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(oracles.sector_norms(evolved), oracles.sector_norms(state), atol=1e-12)

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
        devs = oracles.squeezed_convention_deviation(0.6, np.linspace(0.1, 6.0, 9))
        assert devs["double"] < 1e-10
        # the halved-phase variant is inconsistent with the evolution
        assert devs["half"] > 1e-2

    @example(0.6, 0.0, 27)
    @example(0.6, 5e-324, 27)
    @example(0.95, 2.0**-1070 * 3.0, 269)
    @given(st.floats(0.0, 0.95), st.floats(0.0, 30.0), st.integers(0, 60))
    @settings(max_examples=60, deadline=None)
    def test_series_at_half_the_time_is_the_halved_phase_series(self, gamma, lt, n_max):
        # halving lambda*t and doubling sqrt(n) are exact, so every phase is
        # sqrt(n) lt bit for bit (subnormal times: cos 1 and sin^2 0 either way)
        A = 1.0 - gamma**2
        n = np.arange(n_max + 1)
        w = gamma ** (2 * n)
        cn, sn = np.cos(np.sqrt(n) * lt), np.sin(np.sqrt(n) * lt)
        want = np.zeros((4, 4), dtype=complex)
        want[0, 0] = (A / 4.0) * (w * (cn + 1.0) ** 2).sum(-1)
        want[1, 1] = want[2, 2] = (A / 4.0) * (w * sn**2).sum(-1)
        want[3, 3] = (A / 4.0) * (w * (cn - 1.0) ** 2).sum(-1)
        want[0, 3] = want[3, 0] = (A / 4.0) * (
            w[:-1] * gamma * (cn[1:] - 1.0) * (cn[:-1] + 1.0)).sum(-1)
        assert np.array_equal(jc.squeezed_series_matrix(gamma, lt / 2.0, n_max), want)

    def test_squeezed_x_state_concurrence_identity(self):
        # C of the X state equals max(0, 2|x| - 2b) for this output family
        spec = jc.TwoModeSqueezed(gamma=0.7)
        state = jc.build_input(spec)
        for t in (0.5, 1.3, 4.6):
            rho = jc.reduce_to_qubits(jc.evolve(state, t))
            direct = max(0.0, 2.0 * abs(rho[0, 3]) - 2.0 * rho[1, 1].real)
            assert qubit.concurrence(rho) == pytest.approx(direct, abs=1e-10)

    @pytest.mark.parametrize("spec", [
        jc.NPhoton(n=1),
        jc.NPhoton(n=3),
        jc.EntangledCoherent(alpha=0.6 + 0.8j),
        jc.TwoModeSqueezed(gamma=0.7),
    ])
    def test_times_array_is_the_stack_of_single_times(self, spec, monkeypatch):
        times = np.linspace(0.0, 4.0 * np.pi, 67)
        singles = np.array([jc.analytic_qubit_state(spec, t) for t in times])
        calls = []
        real = jc.required_n_max

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(jc, "required_n_max", counting)
        stacked = jc.analytic_qubit_state(spec, times)
        assert stacked.shape == (times.size, 4, 4)
        assert np.array_equal(stacked, singles)
        assert len(calls) == 1
        with pytest.raises(TruncationError):
            jc.analytic_qubit_state(jc.TwoModeSqueezed(gamma=0.9), times, n_max=20)

    def test_truncation_convergence(self):
        spec = jc.TwoModeSqueezed(gamma=0.9)
        base = jc.resolve_n_max(spec)
        for t in (0.8, 4.6):
            c1 = qubit.concurrence(jc.reduce_to_qubits(jc.evolve(jc.build_input(spec, base), t)))
            c2 = qubit.concurrence(
                jc.reduce_to_qubits(jc.evolve(jc.build_input(spec, 2 * base), t))
            )
            assert abs(c1 - c2) < 1e-10


# the four inputs of `epe jc`, with random parameters
_SPECS_BY_INPUT = {
    "single-photon": st.just(jc.SinglePhoton()),
    "n-photon": st.integers(1, 6).map(lambda n: jc.NPhoton(n=n)),
    "coherent": st.builds(
        lambda r, phi: jc.EntangledCoherent(alpha=r * np.exp(1j * phi)),
        st.floats(0.0, 2.0),
        st.floats(0.0, 2.0 * np.pi),
    ),
    "squeezed": st.floats(0.0, 0.8).map(lambda g: jc.TwoModeSqueezed(gamma=g)),
}
_INPUT_SPECS = st.one_of(*_SPECS_BY_INPUT.values())


@st.composite
def _dense_ground_tables(draw):
    """Random dense field tables up to 8 x 8 with both atoms in the ground
    level, some rows exactly zero."""
    dim = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = np.zeros((dim, dim, 2, 2), dtype=complex)
    amps[:, :, 0, 0] = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    zero_rows = draw(st.lists(st.booleans(), min_size=dim, max_size=dim))
    if all(zero_rows):
        zero_rows[draw(st.integers(0, dim - 1))] = False
    amps[np.array(zero_rows)] = 0.0
    return amps / np.linalg.norm(amps)


def _support_of_table(state):
    """The field support of a dense table with both atoms in the ground level."""
    field = state[:, :, 0, 0]
    n1, n2 = np.nonzero(field)
    return jc.FieldSupport(n_max=field.shape[0] - 1, n1=n1, n2=n2, amps=field[n1, n2])


def _spec_inputs(spec, extra):
    """(support, dense table) of a spec input at `extra` above its required truncation."""
    n_max = jc.required_n_max(spec) + extra
    return jc.field_support(spec, n_max), jc.build_input(spec, n_max)


# (support, dense reference table) pairs: spec inputs and random dense tables
_SUPPORTED_INPUTS = st.one_of(
    st.builds(_spec_inputs, _INPUT_SPECS, st.integers(0, 6)),
    _dense_ground_tables().map(lambda state: (_support_of_table(state), state)),
)
_TIMES = st.lists(st.floats(0.0, 30.0), max_size=6)


class TestFieldSupport:
    @pytest.mark.parametrize("spec,size", [
        (jc.NPhoton(n=7), 2),
        (jc.EntangledCoherent(alpha=1.0), 2 * 14 + 1),
        (jc.TwoModeSqueezed(gamma=0.6), 27 + 1),
        (jc.TwoModeSqueezed(gamma=0.0), 1),
    ])
    def test_entries_are_the_nonzero_field_entries(self, spec, size):
        support = jc.field_support(spec)
        assert support.n_max == jc.resolve_n_max(spec)
        assert support.amps.size == size
        assert np.linalg.norm(support.amps) == pytest.approx(1.0, abs=1e-15)
        # build_input is the scatter of the support, with nothing else nonzero
        table = jc.build_input(spec)
        assert np.count_nonzero(table) == size
        assert np.array_equal(table[support.n1, support.n2, 0, 0], support.amps)
        # row-major order
        assert np.all(np.diff(support.n1 * (support.n_max + 1) + support.n2) > 0)

    def test_underflowed_entries_are_dropped(self):
        support = jc.field_support(jc.TwoModeSqueezed(gamma=0.5), n_max=1500)
        assert support.n_max == 1500
        assert 0 < support.amps.size < 1501 and np.all(support.amps != 0.0)

    @pytest.mark.parametrize("n1,n2", [
        ([1, 0], [0, 1]),  # not row-major
        ([0, 0], [1, 1]),  # repeated
        ([0, 3], [1, 0]),  # beyond n_max
        ([-1, 0], [0, 1]),
        ([], []),
    ])
    def test_rejects_malformed_entries(self, n1, n2):
        with pytest.raises(DomainError):
            jc.FieldSupport(n_max=2, n1=np.array(n1, dtype=int), n2=np.array(n2, dtype=int),
                            amps=np.ones(len(n1), dtype=complex))


class TestReducedStates:
    @given(_SUPPORTED_INPUTS, _TIMES)
    @settings(max_examples=90, deadline=None)
    def test_matches_evolve_oracle(self, inputs, times):
        # both support routes, the factorized sum and the amplitude propagation
        support, state = inputs
        times = [0.0, 4.0 * np.pi + 0.3, *times]
        rhos = jc.reduced_states(support, times)
        assert rhos.shape == (len(times), 4, 4)
        for t, rho in zip(times, rhos):
            oracle = jc.reduce_to_qubits(jc.evolve(state, t))
            assert np.abs(rho - oracle).max() <= 1e-13
            assert np.abs(jc.propagated_qubit_state(support, t) - oracle).max() <= 1e-13


class TestPropagatedQubitState:
    @pytest.mark.parametrize("spec", [
        jc.SinglePhoton(),
        jc.NPhoton(n=3),
        jc.EntangledCoherent(alpha=1.0),
        jc.EntangledCoherent(alpha=0.6 + 0.8j),
        jc.TwoModeSqueezed(gamma=0.0),
        jc.TwoModeSqueezed(gamma=0.6),
    ])
    def test_every_input_at_small_truncation(self, spec):
        for n_max in (jc.required_n_max(spec), jc.required_n_max(spec) + 3):
            support, state = jc.field_support(spec, n_max), jc.build_input(spec, n_max)
            for t in (0.37, 1.3, 27.1):
                oracle = jc.reduce_to_qubits(jc.evolve(state, t))
                assert np.abs(jc.propagated_qubit_state(support, t) - oracle).max() <= 1e-13

    def test_does_not_use_the_factorized_sum(self, monkeypatch):
        # the propagation reads only the entries, not the pairings
        support = jc.field_support(jc.EntangledCoherent(alpha=0.8))
        expected = jc.propagated_qubit_state(support, 0.9)
        monkeypatch.setattr(jc, "reduced_states", None)
        entries = types.SimpleNamespace(n_max=support.n_max, n1=support.n1, n2=support.n2,
                                        amps=support.amps)
        assert np.array_equal(jc.propagated_qubit_state(entries, 0.9), expected)


def wootters_oracle(rho):
    """Concurrence of rho from the 40-digit mpmath eigenvalues of
    R = rho (sy x sy) rho* (sy x sy), clamped to [0, 1]."""
    with mpmath.workdps(40):
        r = mpmath.matrix(rho.tolist())
        yy = mpmath.matrix(np.kron(qubit.SIGMA_Y, qubit.SIGMA_Y).real.tolist())
        ev = mpmath.eig(r * yy * r.conjugate() * yy, left=False, right=False)
        mu = sorted((mpmath.sqrt(max(mpmath.re(e), 0)) for e in ev), reverse=True)
        return float(min(max(mu[0] - sum(mu[1:]), 0), 1))


def _unshaped_support():
    """Entries |00>, |01>, |11>: a block pairing levels of unequal parity
    (rho_{00,01}) and one touching |ee> (rho_{11,11})."""
    return jc.FieldSupport(n_max=1, n1=np.array([0, 0, 1]), n2=np.array([0, 1, 1]),
                           amps=np.full(3, 1.0 / np.sqrt(3.0), dtype=complex))


class TestShapedConcurrence:
    @pytest.mark.parametrize("name", sorted(_SPECS_BY_INPUT))
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_mpmath(self, name, data):
        spec = data.draw(_SPECS_BY_INPUT[name])
        times = data.draw(st.lists(st.floats(0.0, 30.0), min_size=1, max_size=4))
        support = jc.field_support(spec)
        jc.require_shaped(support)
        rhos = jc.reduced_states(support, times)
        values = jc.shaped_concurrence(rhos)
        assert values.shape == (len(times),)
        for rho, c in zip(rhos, values):
            # the closed form and the Wootters value of the same state each
            # round once: at most about 2 ulp apart
            assert abs(c - wootters_oracle(rho)) <= 5e-16
        assert np.abs(values - qubit.concurrence(rhos, check=False)).max() <= 1e-14

    def test_separable_states_read_plus_zero(self):
        product = qubit.ket_to_dm([1, 0, 0, 0])
        rhos = jc.reduced_states(jc.field_support(jc.NPhoton(n=3)), np.linspace(0.0, 9.0, 50))
        values = jc.shaped_concurrence(np.concatenate([[product], rhos]))
        assert np.all(values == 0.0) and not np.any(np.signbit(values))

    def test_support_of_neither_shape_raises(self):
        with pytest.raises(InvariantViolation):
            jc.require_shaped(_unshaped_support())

    def test_max_transfer_checks_the_shape(self, monkeypatch):
        monkeypatch.setattr(jc, "field_support", lambda spec, n_max=None: _unshaped_support())
        with pytest.raises(InvariantViolation):
            jc.max_transfer(jc.SinglePhoton(), np.linspace(0.0, 1.0, 20))


class TestMaxTransfer:
    def test_default_grid(self):
        spec = jc.EntangledCoherent(alpha=1.0)
        default = jc.max_transfer(spec)
        explicit = jc.max_transfer(spec, np.linspace(0.0, jc.DEFAULT_T_MAX, jc.DEFAULT_T_STEPS))
        for name in ("lambda_t", "qubit_state", "concurrence", "purity", "input_energy",
                     "input_entropy"):
            assert np.array_equal(getattr(default, name), getattr(explicit, name))

    def test_single_photon(self):
        result = jc.max_transfer(jc.SinglePhoton(), np.linspace(0.0, 4.0 * np.pi, 500))
        assert result.concurrence == pytest.approx(1.0, abs=1e-10)
        assert result.lambda_t == pytest.approx(np.pi / 2.0, abs=1e-6)
        assert result.purity == pytest.approx(1.0, abs=1e-10)
        assert result.input_energy == 1.0

    def test_result_keeps_the_evolved_input(self):
        spec = jc.EntangledCoherent(alpha=0.8)
        result = jc.max_transfer(spec, np.linspace(0.0, 4.0 * np.pi, 200))
        support = jc.field_support(spec)
        assert isinstance(result.input_state, jc.FieldSupport)
        assert result.input_state.n_max == support.n_max
        for name in ("n1", "n2", "amps"):
            assert np.array_equal(getattr(result.input_state, name), getattr(support, name))
        rho = jc.reduced_states(result.input_state, [result.lambda_t])[0]
        assert np.array_equal(result.qubit_state, rho)
        oracle = jc.reduce_to_qubits(jc.evolve(jc.build_input(spec), result.lambda_t))
        assert np.abs(result.qubit_state - oracle).max() <= 1e-13
        propagated = jc.propagated_qubit_state(result.input_state, result.lambda_t)
        assert np.abs(propagated - oracle).max() <= 1e-13

    def test_runs_without_evolve(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("max_transfer used a dense table")

        monkeypatch.setattr(jc, "evolve", refuse)
        monkeypatch.setattr(jc, "build_input", refuse)
        result = jc.max_transfer(jc.TwoModeSqueezed(gamma=0.6), np.linspace(0.0, 4.0 * np.pi, 300))
        assert result.concurrence > 0.8

    def test_n_photon_stays_separable(self):
        result = jc.max_transfer(jc.NPhoton(n=3), np.linspace(0.0, 4.0 * np.pi, 300))
        assert result.concurrence == 0.0
        assert result.lambda_t == 0.0  # earliest tie wins

    def test_flat_run_is_one_refinement_candidate(self, monkeypatch):
        # C vanishes on the whole grid, which must not refine every point
        brackets = []
        real = jc._refine_peaks

        def counting(concurrences, lo, hi):
            brackets.extend(zip(lo, hi))
            return real(concurrences, lo, hi)

        monkeypatch.setattr(jc, "_refine_peaks", counting)
        result = jc.max_transfer(jc.NPhoton(n=3), np.linspace(0.0, 4.0 * np.pi, 300))
        assert len(brackets) <= 2
        assert result.concurrence == 0.0 and not np.signbit(result.concurrence)
        assert result.lambda_t == 0.0

    @pytest.mark.parametrize("spec", [
        jc.SinglePhoton(),
        jc.NPhoton(n=2),
        jc.EntangledCoherent(alpha=1.0),
        jc.TwoModeSqueezed(gamma=0.6),
    ])
    def test_runs_on_the_closed_form(self, spec, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("max_transfer called qubit.concurrence")

        monkeypatch.setattr(qubit, "concurrence", refuse)
        result = jc.max_transfer(spec, np.linspace(0.0, 4.0 * np.pi, 300))
        assert result.concurrence == jc.shaped_concurrence(result.qubit_state)

    @pytest.mark.parametrize(
        "spec",
        [
            jc.SinglePhoton(),
            jc.EntangledCoherent(alpha=1.0),
            jc.TwoModeSqueezed(gamma=0.4),
            jc.TwoModeSqueezed(gamma=0.6),
            jc.TwoModeSqueezed(gamma=0.8),
        ],
    )
    def test_refinement_matches_brute_force_on_scan_inputs(self, spec):
        # a dense closed-form scan of the two grid intervals around the peak
        grid = np.linspace(0.0, jc.DEFAULT_T_MAX, jc.DEFAULT_T_STEPS)
        result = jc.max_transfer(spec, grid)
        i = int(np.argmin(np.abs(grid - result.lambda_t)))
        times = np.linspace(grid[i - 1], grid[i + 1], 4001)
        values = jc.shaped_concurrence(jc.reduced_states(result.input_state, times))
        k = int(np.argmax(values))
        assert values[k] - 1e-15 <= result.concurrence <= values[k] + 1e-10
        assert abs(result.lambda_t - times[k]) <= times[1] - times[0]

    def test_empty_grid(self):
        with pytest.raises(DomainError):
            jc.max_transfer(jc.SinglePhoton(), [])

    def test_non_monotone_grid(self):
        with pytest.raises(DomainError):
            jc.max_transfer(jc.SinglePhoton(), [0.0, 1.0, 0.5])

    @pytest.mark.parametrize("grid", [[0.0, np.nan], [np.nan], [0.0, np.inf]])
    def test_non_finite_grid(self, grid):
        with pytest.raises(DomainError):
            jc.max_transfer(jc.SinglePhoton(), grid)

    def test_refinement_ends_at_the_top_of_the_float_range(self):
        # |lo| + |hi| overflows here; the stop test must still be reached
        calls = []

        def peaked(ts):
            calls.append(ts.size)
            assert len(calls) < 200, "the refinement did not end"
            return -np.abs(ts / 1e308 - 0.995)

        times, values = jc._refine_peaks(peaked, np.array([0.99e308]), np.array([1e308]))
        assert 0.99e308 <= times[0] <= 1e308
        assert times[0] / 1e308 == pytest.approx(0.995, rel=1e-13)

    def test_refinement_ends_where_float_spacing_exceeds_its_width(self):
        # near t = 1e10 neighbouring doubles are 1.9e-6 apart, above REFINE_WIDTH
        result = jc.max_transfer(jc.SinglePhoton(), 1e10 + np.linspace(0.0, 4.0, 9))
        assert 1e10 <= result.lambda_t <= 1e10 + 4.0
        assert result.concurrence == jc.shaped_concurrence(result.qubit_state)


class TestScipyPorts:
    """The coherent truncation and the log-factorials it is built from, against mpmath."""

    def test_log_factorials_match_loggamma(self):
        # far past any table a truncation builds; math.lgamma(3.0) is 3 ulp
        # below ln 2, the largest gap on the sample
        k = np.concatenate([np.arange(300), np.random.default_rng(11).integers(300, 100_001, 700)])
        got = jc.log_factorials(100_000)[k]
        with mpmath.workdps(40):
            want = np.array([float(mpmath.loggamma(int(j) + 1)) for j in k])
        assert np.all(np.abs(got - want) <= 3 * np.spacing(want))

    @pytest.mark.parametrize("alpha,n_max", [(1, 14), (3, 37), (10, 178),
                                             (34.857142857142854, 1468), (150, 23563)])
    def test_coherent_truncation_pinned(self, alpha, n_max):
        spec = jc.EntangledCoherent(alpha=alpha)
        if n_max > jc.MAX_N_MAX:
            with pytest.raises(DomainError, match="above the cap"):
                jc.required_n_max(spec)
        else:
            assert jc.required_n_max(spec) == n_max

    @pytest.mark.parametrize("alpha", [
        1, 3, 10, 30, 34.857142857142854, 35.27, 60, 150,
        *(36.0 * (1.0 - np.random.default_rng(20).random(30))).tolist(),
    ])
    def test_coherent_truncation_is_the_smallest_below_the_tail(self, alpha):
        # P(N > m) for N ~ Poisson(alpha^2) is the regularized lower incomplete gamma
        spec = jc.EntangledCoherent(alpha=alpha)
        with mpmath.workdps(40):
            mean = mpmath.mpf(alpha) ** 2
            if mpmath.gammainc(jc.MAX_N_MAX + 1, 0, mean, regularized=True) > jc.TAIL_TOL:
                # the smallest such truncation is above the cap, which is refused
                with pytest.raises(DomainError, match="above the cap"):
                    jc.required_n_max(spec)
                return
            m = jc.required_n_max(spec)
            assert mpmath.gammainc(m + 1, 0, mean, regularized=True) <= jc.TAIL_TOL
            assert m == 1 or mpmath.gammainc(m, 0, mean, regularized=True) > jc.TAIL_TOL

    def test_coherent_mean_above_the_cap_raises_without_a_table(self, monkeypatch):
        calls = []
        monkeypatch.setattr(jc, "log_factorials", lambda n_max: calls.append(n_max))
        start = time.perf_counter()
        with pytest.raises(DomainError, match=f"cap n_max={jc.MAX_N_MAX}"):
            jc.required_n_max(jc.EntangledCoherent(alpha=1e4))
        assert time.perf_counter() - start < 0.5 and calls == []

    def test_truncation_search_builds_its_table_once(self, monkeypatch):
        calls = []
        real = jc.log_factorials

        def counting(n_max):
            calls.append(n_max)
            return real(n_max)

        monkeypatch.setattr(jc, "log_factorials", counting)
        assert jc.required_n_max(jc.EntangledCoherent(alpha=30)) == 1119
        assert len(calls) == 1
