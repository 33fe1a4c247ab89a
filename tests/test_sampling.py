"""Sampler determinism, containment flags and boundary tables."""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from epe import gaussian, qubit, sampling
from epe.errors import ConfigurationError, DomainError
import oracles


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            sampling.SamplerConfig(seed=1, count=0)
        with pytest.raises(ConfigurationError):
            sampling.SamplerConfig(seed=1, count=5, system="spin-chain")
        with pytest.raises(ConfigurationError):
            sampling.SamplerConfig(seed=1, count=5, rank_filter=5)
        with pytest.raises(ConfigurationError):
            sampling.SamplerConfig(seed=1, count=5, energy_window=(2.0, 1.0))
        with pytest.raises(ConfigurationError):
            sampling.SamplerConfig(seed=1, count=5, system="gaussian", measure="concurrence")

    def test_default_measures(self):
        assert sampling.SamplerConfig(seed=1, count=1).measure == "concurrence"
        assert sampling.SamplerConfig(seed=1, count=1, system="gaussian").measure == "logneg"

    def test_seed_and_count_ranges(self):
        for seed in (-1, 2**64):
            with pytest.raises(ConfigurationError, match="seed"):
                sampling.SamplerConfig(seed=seed, count=3)
        with pytest.raises(ConfigurationError, match="count"):
            sampling.SamplerConfig(seed=1, count=2**40, system="gaussian")
        sampling.SamplerConfig(seed=2**64 - 1, count=2**40 - 1)
        with pytest.raises(ConfigurationError):
            sampling.qubit_records_chunk(-1, 0, 3)
        with pytest.raises(ConfigurationError):
            sampling._qubit_states_chunk(1, 2**40 - 2, 2, 4)

    def test_seed_and_count_are_integers(self):
        # a float seed sampled the truncated seed's stream; a float count or
        # rank filter raised TypeError inside the sampler
        for kwargs in ({"seed": 1.5, "count": 2}, {"seed": 1, "count": 2.5},
                       {"seed": "1", "count": 2}, {"seed": 1, "count": 2.0},
                       {"seed": 1, "count": 2, "rank_filter": 2.0}):
            with pytest.raises(ConfigurationError, match="must be an integer"):
                sampling.SamplerConfig(**kwargs)
        cfg = sampling.SamplerConfig(seed=np.uint64(7), count=np.int64(3), rank_filter=np.int8(2))
        assert (type(cfg.seed), type(cfg.count), type(cfg.rank_filter)) == (int, int, int)
        values, flags = sampling.records_chunk(cfg, 0, cfg.count)
        assert values.shape == flags.shape == (3, 3)
        want = sampling.qubit_records_chunk(7, 0, 3, 2)
        assert all(np.array_equal(g, w) for g, w in zip((values, flags), want))

    @pytest.mark.parametrize("window", [("0", 2), (0, 1, 2), (1.0,), 2.0])
    def test_energy_window_is_two_real_numbers(self, window):
        # the first two raised TypeError and ValueError
        with pytest.raises(ConfigurationError, match="two real numbers"):
            sampling.SamplerConfig(seed=1, count=5, system="gaussian", energy_window=window)
        cfg = sampling.SamplerConfig(seed=1, count=5, system="gaussian",
                                     energy_window=(np.float32(0.5), 2))
        assert cfg.energy_window == (0.5, 2)

    def test_rank_filter_is_qubit_only(self):
        with pytest.raises(ConfigurationError, match="qubit only"):
            sampling.SamplerConfig(seed=1, count=5, system="gaussian", rank_filter=2)
        assert sampling.SamplerConfig(seed=1, count=5, rank_filter=2).rank_filter == 2

    def test_energy_window_is_gaussian_only(self):
        with pytest.raises(ConfigurationError, match="gaussian only"):
            sampling.SamplerConfig(seed=1, count=5, system="qubit", energy_window=(1.5, 2.0))
        assert sampling.SamplerConfig(seed=1, count=5).energy_window is None
        cfg = sampling.SamplerConfig(seed=1, count=5, system="gaussian")
        assert cfg.energy_window == sampling.DEFAULT_ENERGY_WINDOW == (0.0, 2.0)


class TestQubitSampler:
    def test_deterministic_across_runs_and_chunking(self):
        cfg = sampling.SamplerConfig(seed=42, count=10)
        runs = [sampling.records_chunk(cfg, 0, cfg.count) for _ in range(2)]
        assert all(np.array_equal(a, b) for a, b in zip(*runs))
        states = [sampling._qubit_states_chunk(42, 0, 10, 4)[0] for _ in range(2)]
        assert np.array_equal(*states)
        # chunk-by-chunk computation agrees with per-index construction
        vals, _ = sampling.qubit_records_chunk(42, 0, 10)
        lo, _ = sampling.qubit_records_chunk(42, 0, 4)
        hi, _ = sampling.qubit_records_chunk(42, 4, 6)
        assert np.array_equal(vals, np.concatenate([lo, hi]))

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_states_are_the_factor_products(self, rank):
        n = 2 * sampling.CHUNK
        rhos, A = sampling._qubit_states_chunk(7, 0, n, rank)
        assert rhos.shape == (n, 4, 4) and A.shape == (n, 4, rank)
        assert rhos.flags.c_contiguous and A.flags.c_contiguous
        # rho_ab = sum_j A_aj A_bj^*, real and imaginary parts summed from 0
        # over j in order, each product rounded on its own: no BLAS kernel
        # and no fused multiply-add decides a bit
        x, y = A.real, A.imag
        want = np.zeros((n, 4, 4), dtype=complex)
        for j in range(rank):
            xa, ya, xb, yb = x[:, :, None, j], y[:, :, None, j], x[:, None, :, j], y[:, None, :, j]
            want.real += xa * xb + ya * yb
            want.imag += ya * xb - xa * yb
        assert np.array_equal(rhos.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_factors_are_normalized_lower_trapezoidal(self, rank):
        _, A = sampling._qubit_states_chunk(7, 0, 2 * sampling.CHUNK, rank)
        rows, columns = np.indices((4, rank))
        assert np.all(A[:, rows < columns] == 0.0)
        diagonal = A[:, np.arange(rank), np.arange(rank)]
        assert np.all(diagonal.imag == 0.0) and np.all(diagonal.real >= 0.0)
        # the moduli squared sum to 1 exactly; what is left is the rounding
        # of sqrt, cos and sin, of the squares and of their sum
        norm2 = (A.real**2 + A.imag**2).sum(axis=(1, 2))
        assert np.abs(norm2 - 1.0).max() <= 8.0 * np.finfo(float).eps

    def test_factor_entries_from_their_words(self):
        # the squared moduli are the spacings of 0, the sorted uniforms of
        # words [0, 4k - 1) and 1: grouped k, k - 1, ..., 1 for the diagonal,
        # then one per entry below it, row by row; entry e below the
        # diagonal has the phase 2 pi u of word 16 + e
        u = sampling.uniforms(sampling.stream_words(3, "qubit", 0, 64, sampling.QUBIT_WORDS))
        for k in (1, 2, 3, 4):
            points = np.column_stack([np.zeros(64), np.sort(u[:, :4 * k - 1], axis=1), np.ones(64)])
            entries = [*((j, j, k - j) for j in range(k)),
                       *((i, j, 1) for i in range(4) for j in range(min(i, k)))]
            want = np.zeros((64, 4, k), dtype=complex)
            edge, word = 0, 16
            for i, j, shape in entries:
                radius = np.sqrt(points[:, edge + shape] - points[:, edge])
                edge += shape
                if i == j:
                    want.real[:, i, j] = radius
                    continue
                theta = 2.0 * np.pi * u[:, word]
                word += 1
                want.real[:, i, j] = radius * np.cos(theta)
                want.imag[:, i, j] = radius * np.sin(theta)
            assert edge == 4 * k and word == 16 + 4 * k - k * (k + 1) // 2
            _, A = sampling._qubit_states_chunk(3, 0, 64, k)
            assert np.array_equal(A.view(np.uint64), want.view(np.uint64))

    def test_rank_filter_one_gives_pure_states(self):
        cfg = sampling.SamplerConfig(seed=3, count=200, rank_filter=1)
        values, _ = sampling.records_chunk(cfg, 0, cfg.count)
        assert values[:, 2] == pytest.approx(np.ones(cfg.count), abs=1e-10)

    def test_records_match_direct_measures(self):
        cfg = sampling.SamplerConfig(seed=9, count=100)
        rhos, _ = sampling._qubit_states_chunk(9, 0, cfg.count, 4)
        values, _ = sampling.records_chunk(cfg, 0, cfg.count)
        for rho, (en, ent, pur) in zip(rhos, values):
            assert en == pytest.approx(qubit.energy(rho), abs=1e-12)
            assert pur == pytest.approx(qubit.purity(rho), abs=1e-12)
            assert ent == pytest.approx(qubit.concurrence(rho), abs=1e-9)

    def test_flags_hold_on_all_samples(self):
        for rank in (1, 2, 3, 4):
            _, flags = sampling.qubit_records_chunk(7, 0, 5000, rank=rank)
            assert flags.all()

    def test_measure_column(self):
        cfg = sampling.SamplerConfig(seed=5, count=50, measure="eof")
        rhos, _ = sampling._qubit_states_chunk(5, 0, cfg.count, 4)
        values, _ = sampling.records_chunk(cfg, 0, cfg.count)
        for rho, ent in zip(rhos, values[:, 1]):
            assert ent == pytest.approx(qubit.entanglement_of_formation(rho), abs=1e-9)

    @pytest.mark.parametrize(
        "target,rank,slack",
        [
            # the MEMS frontier is rank 3 at P = 0.5 and rank 2 above P = 5/9;
            # unconditioned sampling approaches it only slowly at P = 0.5
            (0.5, 3, 0.08),
            (0.7, 2, 0.05),
            (0.9, 2, 0.05),
        ],
    )
    def test_boundary_coverage_smoke(self, target, rank, slack):
        vals, _ = sampling.qubit_records_chunk(101 + rank, 0, 100_000, rank=rank)
        window = np.abs(vals[:, 2] - target) <= 0.01
        assert window.sum() > 50
        best = vals[window, 1].max()
        assert best >= qubit.mems_concurrence_bound(target) - slack


class TestGaussianSampler:
    def test_deterministic(self):
        cfg = sampling.SamplerConfig(seed=8, count=20, system="gaussian")
        a, b = (sampling.records_chunk(cfg, 0, cfg.count) for _ in range(2))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        a, b = (oracles.sampled_covariances(8, 0, 20, cfg.energy_window) for _ in range(2))
        assert np.array_equal(a, b)

    def test_samples_physical_and_in_window(self):
        cfg = sampling.SamplerConfig(seed=1, count=300, system="gaussian")
        rows = gaussian.reduce_to_standard_form(
            oracles.sampled_covariances(1, 0, cfg.count, cfg.energy_window))
        values, flags = sampling.records_chunk(cfg, 0, cfg.count)
        for row, en, label in zip(rows.tolist(), values[:, 0], sampling.flag_labels(flags)):
            assert gaussian.is_physical(gaussian.StandardFormCM(*row))
            assert 0.0 - 1e-12 <= en <= 2.0 + 1e-12
            assert label == b"111"

    def test_containment_bounds(self):
        values, flags = sampling.gaussian_records_chunk(12, 0, 2000)
        assert flags.all()
        E, EN, P = values[:, 0], values[:, 1], values[:, 2]
        assert np.all(P >= 1.0 / (E + 1.0) ** 2 - 1e-9)
        entangled = EN > 0.0
        assert np.all(P[entangled] > 1.0 / (2.0 * E[entangled] + 1.0) - 1e-9)
        assert 0.05 < entangled.mean() < 0.95  # both populations present

    @pytest.mark.parametrize("window", [(1.0, 2.0), (0.5, 0.8), (3.0, 3.5)])
    def test_records_honour_a_window_above_zero(self, window):
        lo, hi = window
        cfg = sampling.SamplerConfig(seed=3, count=300, system="gaussian", energy_window=window)
        energies = sampling.records_chunk(cfg, 0, cfg.count)[0][:, 0]
        assert np.all((lo - 1e-12 <= energies) & (energies <= hi + 1e-12))
        for sigma in oracles.sampled_covariances(7, 0, 50, window):
            sf = gaussian.reduce_to_standard_form(sigma)
            assert lo - 1e-12 <= gaussian.energy(sf) <= hi + 1e-12

    def test_narrow_window_raises_configuration_error(self, monkeypatch):
        # a sliver at the top of the window is essentially never hit
        with pytest.raises(ConfigurationError):
            sampling._accepted_candidates(0, 0, 1, (2.0 - 1e-7, 2.0))
        monkeypatch.setattr(sampling, "DEFAULT_ENERGY_WINDOW", (2.0 - 1e-7, 2.0))
        with pytest.raises(ConfigurationError, match="rejection rate above 99.9%"):
            sampling.random_covariance(np.random.default_rng(0))

    @pytest.mark.parametrize("s", [0, 1, 3100, 2**40 + 7])
    def test_random_covariance_is_the_candidate_index_0_accepts(self, s):
        # at the stream seed an identically seeded rng draws
        seed = int(np.random.default_rng(s).integers(1 << 64, dtype=np.uint64))
        cm = sampling.random_covariance(np.random.default_rng(s))
        want = oracles.sampled_covariances(seed, 0, 1, sampling.DEFAULT_ENERGY_WINDOW)[0]
        assert np.array_equal(cm, want)
        assert np.array_equal(sampling.random_covariance(np.random.default_rng(s)), cm)
        # the window holds the exact energy; the determinants add roundoff
        da, db, *_ = oracles.cm_block_invariants(cm)
        assert -1e-12 <= (np.sqrt(da) + np.sqrt(db)) / 2.0 - 1.0 <= 2.0 + 1e-12


WINDOWS = [(0.0, 2.0), (1.0, 2.0), (3.0, 3.5), (0.0, 0.05)]
SEEDS = st.integers(0, 2**64 - 1)


def scalar_record(sf, measure):
    """((E, entanglement, P), flags) of one standard form from the scalar measures."""
    en = gaussian.energy(sf)
    pur = gaussian.purity(sf)
    logneg = gaussian.log_negativity(sf)
    ent = logneg if measure == "logneg" else gaussian.negativity(sf)
    return (en, ent, pur), scalar_flags(en, logneg, pur)


def scalar_flags(en, logneg, pur):
    """The containment flags of one record (E, E_N, P).

    The per-record logic that `sampling._gaussian_flags` applies to a
    stack, through the same `gaussian` calls on one record.  It checks the
    stacked flags, not the formulas: the oracles of the formulas are
    `test_values_match_block_invariants`, the mpmath tests here and the
    frontier tests of `test_gaussian.py`.
    """
    tmsv_ln = gaussian.log_negativity(gaussian.two_mode_squeezed_vacuum(max(en, 0.0)))
    on_curve = pur < 1.0 - sampling.PURE_TOL or abs(logneg - tmsv_ln) <= 1e-6
    if en > 0.0:
        p_ref = min(max(pur, 1.0 / (en + 1.0) ** 2), 1.0)
        bound = gaussian.log_negativity(gaussian.gmems(en, p_ref))
    else:
        bound = 0.0
    below = logneg <= bound + sampling.FLAG_TOL
    in_band = logneg <= 0.0 or pur > 1.0 / (2.0 * en + 1.0) - sampling.FLAG_TOL
    return on_curve, below, in_band


class TestRecordsChunk:
    @given(SEEDS, st.integers(0, 5000), st.integers(1, 300), st.integers(1, 4),
           st.sampled_from(sampling.QUBIT_MEASURES))
    @settings(max_examples=25, deadline=None)
    def test_qubit_chunk_is_qubit_records_chunk(self, seed, start, count, rank, measure):
        cfg = sampling.SamplerConfig(seed=seed, count=start + count, rank_filter=rank,
                                     measure=measure)
        values, flags = sampling.records_chunk(cfg, start, count)
        want_values, want_flags = sampling.qubit_records_chunk(seed, start, count, rank, measure)
        assert np.array_equal(values, want_values)
        assert np.array_equal(flags, want_flags)

    @given(SEEDS, st.integers(0, 5000), st.integers(1, 40), st.sampled_from(WINDOWS),
           st.sampled_from(sampling.GAUSSIAN_MEASURES))
    @settings(max_examples=15, deadline=None)
    def test_gaussian_chunk_is_gaussian_records_chunk(self, seed, start, count, window, measure):
        cfg = sampling.SamplerConfig(seed=seed, count=start + count, system="gaussian",
                                     energy_window=window, measure=measure)
        values, flags = sampling.records_chunk(cfg, start, count)
        want_values, want_flags = sampling.gaussian_records_chunk(
            seed, start, count, window, measure
        )
        assert np.array_equal(values, want_values)
        assert np.array_equal(flags, want_flags)
        # the reductions of the accepted candidates' matrices give the same records
        rows = gaussian.reduce_to_standard_form(
            oracles.sampled_covariances(seed, start, count, window))
        sf = gaussian.StandardFormCM(*rows.T)
        ent = gaussian.log_negativity if measure == "logneg" else gaussian.negativity
        want = np.column_stack([f(sf, check=False) for f in (gaussian.energy, ent,
                                                             gaussian.purity)])
        assert np.allclose(values, want, rtol=0.0, atol=1e-12)

    def test_records_walk_the_chunks(self):
        cfg = sampling.SamplerConfig(seed=6, count=sampling.CHUNK + 3, rank_filter=3,
                                     measure="logneg")
        values, flags = sampling.records_chunk(cfg, 0, cfg.count)
        chunks = [sampling.records_chunk(cfg, 0, sampling.CHUNK),
                  sampling.records_chunk(cfg, sampling.CHUNK, 3)]
        assert np.array_equal(values, np.concatenate([v for v, _ in chunks]))
        assert np.array_equal(flags, np.concatenate([f for _, f in chunks]))
        rhos, _ = sampling._qubit_states_chunk(6, sampling.CHUNK, 3, 3)
        assert qubit.log_negativity(rhos[-1]) == values[-1, 1]


class TestGaussianRecords:
    @given(st.integers(0, 2**64 - 1), st.sampled_from(WINDOWS),
           st.sampled_from(sampling.GAUSSIAN_MEASURES))
    @settings(max_examples=25, deadline=None)
    def test_values_match_block_invariants(self, seed, window, measure):
        cms = oracles.sampled_covariances(seed, 0, 64, window)
        values, _ = sampling.gaussian_records_chunk(seed, 0, 64, window, measure)
        for cm, (en, ent, pur) in zip(cms, values):
            da, db, dg, ds, _ = oracles.cm_block_invariants(cm)
            ppt_delta = da + db - 2.0 * dg
            nu = np.sqrt((ppt_delta - np.sqrt(max(ppt_delta**2 - 4.0 * ds, 0.0))) / 2.0)
            want = max(0.0, -np.log(nu)) if measure == "logneg" else max(0.0, (1 - nu) / (2 * nu))
            assert abs(en - ((np.sqrt(da) + np.sqrt(db)) / 2.0 - 1.0)) <= 1e-12
            assert abs(pur - min(1.0 / np.sqrt(ds), 1.0)) <= 1e-12
            assert abs(ent - want) <= 1e-12

    @given(st.integers(0, 2**64 - 1), st.sampled_from(WINDOWS),
           st.sampled_from(sampling.GAUSSIAN_MEASURES))
    @settings(max_examples=25, deadline=None)
    def test_sampled_records_match_the_scalar_logic(self, seed, window, measure):
        # the records against the scalar measures of their states' rows, and
        # the flags against the scalar flag logic on the records
        values, flags = sampling.gaussian_records_chunk(seed, 0, 64, window, measure)
        logneg = sampling.gaussian_records_chunk(seed, 0, 64, window)[0][:, 1]
        params = gaussian.reduce_to_standard_form(oracles.sampled_covariances(seed, 0, 64, window))
        for row, got_values, got_flags, ln in zip(params.tolist(), values, flags, logneg):
            want_values, _ = scalar_record(gaussian.StandardFormCM(*row), measure)
            en, _, pur = got_values
            assert tuple(got_flags) == scalar_flags(en, ln, pur)
            assert np.allclose(got_values, want_values, rtol=0.0, atol=1e-12)

    @given(st.floats(0.01, 3.0), st.floats(0.0, 1.0), st.sampled_from(sampling.GAUSSIAN_MEASURES))
    @settings(max_examples=50, deadline=None)
    def test_extremal_records_match_the_scalar_logic(self, E, t, measure):
        # states on the frontiers the flags test: pure, GMEMS, GLEMS and separable ones
        P = 1.0 / (E + 1.0) ** 2 + t * (1.0 - 1.0 / (E + 1.0) ** 2)
        sfs = [
            gaussian.two_mode_squeezed_vacuum(E),
            gaussian.gmems(E, P),
            oracles.maximally_mixed(E),
            oracles.thermal_product(E, 0.0),
            gaussian.StandardFormCM(1.0, 1.0, 0.0, 0.0),
        ]
        if P >= 1.0 / (2.0 * E + 1.0):
            sfs.append(gaussian.glems(E, P))
        sf = gaussian.StandardFormCM(*np.array([[x.a, x.b, x.c_plus, x.c_minus] for x in sfs]).T)
        en, logneg, pur = (f(sf, check=False) for f in (gaussian.energy, gaussian.log_negativity,
                                                         gaussian.purity))
        flags = sampling._gaussian_flags(en, logneg, pur)
        for one, got_flags in zip(sfs, flags):
            assert tuple(got_flags) == scalar_record(one, measure)[1]

    @pytest.mark.parametrize("measure", sampling.GAUSSIAN_MEASURES)
    def test_chunk_builds_no_matrix_and_checks_no_row(self, monkeypatch, measure):
        cfg = sampling.SamplerConfig(seed=3, count=sampling.CHUNK + 3, system="gaussian",
                                     measure=measure)
        want = sampling.records_chunk(cfg, 0, 100)
        called = []
        for module, name in ((gaussian, "is_physical"), (gaussian, "reduce_to_standard_form"),
                             (sampling, "candidate_covariances")):
            def spy(*args, _real=getattr(module, name), _name=name, **kwargs):
                called.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, spy)
        got = sampling.records_chunk(cfg, 0, 100)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert called == []

    @given(SEEDS, st.sampled_from([(0.0, 2.0), (1.0, 2.0), (20.0, 40.0), (50.0, 100.0)]))
    @settings(max_examples=12, deadline=None)
    def test_energy_is_the_acceptance_energy_bit_for_bit(self, seed, window):
        u = sampling._accepted_candidates(seed, 0, 256, window)
        values, _ = sampling.gaussian_records_chunk(seed, 0, 256, window)
        params = sampling._drawn_parameters(u, window[1])
        energy, _ = sampling._candidate_energy(params)
        assert np.array_equal(values[:, 0], energy)
        assert np.all((window[0] <= values[:, 0]) & (values[:, 0] <= window[1]))
        assert sampling._accepted(u, window).all()

    @pytest.mark.parametrize("window", [(0.0, 2.0), (20.0, 40.0), (50.0, 100.0)])
    def test_ppt_eigenvalue_against_mpmath(self, window):
        # record 2954 of seed 7 at 50-100 was 1.7e-8 off while nu~_- came from
        # sqrt((Delta~ - r) / 2)
        u = np.concatenate([sampling._accepted_candidates(7, 0, 300, window),
                            sampling._accepted_candidates(7, 2954, 1, window)])
        values, _ = sampling._gaussian_records(u, window)
        for row, logneg in zip(u, values[:, 1]):
            _, want, _ = mp_record(row, window)
            assert abs(logneg - float(want)) <= record_roundoff(window) * (1.0 + float(want))

    @pytest.mark.parametrize("window", [(0.0, 2.0), (50.0, 100.0), (0.0, 1e4), (0.0, 1e10)])
    def test_records_against_mpmath(self, window):
        # every 8th first-attempt candidate of seed 7 that is accepted; at
        # 0 1e4 and 0 1e10 the CLI stops at a GMEMS flag (ROADMAP item 2), so
        # the record function is called directly
        u = sampling.uniforms(sampling.stream_words(7, "gaussian", 0, 4096, sampling.GAUSSIAN_WORDS))
        u = u[sampling._accepted(u, window)][::8]
        # the flags' TMSV row rounds to Det sigma = 0 above E ~ 1e8 (ROADMAP item 2)
        with np.errstate(divide="ignore"):
            values, _ = sampling._gaussian_records(u, window)
        bound = record_roundoff(window)
        for row, (en, logneg, pur) in zip(u, values):
            want_en, want_logneg, want_pur = map(float, mp_record(row, window))
            assert abs(en - want_en) <= bound * (1.0 + want_en)
            assert abs(logneg - want_logneg) <= bound * (1.0 + want_logneg)
            assert abs(pur - want_pur) <= 16.0 * gaussian.EPS * want_pur


def record_roundoff(window):
    """First-order roundoff of a Gaussian record from its uniforms, relative
    to E + 1 for the energy and absolute per unit of 1 + E_N for E_N.

    nu_- and nu_+ are reciprocals of sums of non-negative terms, nu_+'s
    range inheriting nu_-'s error: at most 5 and 10 eps, so P = 1/(nu_-
    nu_+) is within 16 eps.  Every other quantity is a sum of non-negative
    products of at most about 20 roundings (sines and cosines of angles
    reduced to [-pi/4, pi/4] among them), and so is within 24 eps, except
    that each mode's sinh(2 r) passes on the relative error of r = r_max x
    (arccosh, and one product: 4 eps) times |2 r| <= 2 r_max.
    """
    return (24.0 + 8.0 * 0.5 * np.arccosh(window[1] + 1.0)) * gaussian.EPS


def mp_record(u, window):
    """(E, E_N, P) of the candidate of one row of 16 uniforms, from its 4x4
    blocks at 100 digits: alpha, beta and gamma of BS^T (nu_- M1 (+) nu_+ M2) BS."""
    with mpmath.workdps(100):
        u = [mpmath.mpf(float(x)) for x in u]
        e_hi = mpmath.mpf(window[1])
        cap = mpmath.mpf(sampling._NU_PRODUCT_CAP)

        def inverse_square(x, lo, hi):
            return 1 / (1 / lo - x * (1 / lo - 1 / hi))

        def block(nu, k):
            r = mpmath.acosh(e_hi + 1) / 2 * (2 * u[k] - 1)
            c, s = mpmath.cos(2 * mpmath.pi * u[k + 1]), mpmath.sin(2 * mpmath.pi * u[k + 1])
            rot = mpmath.matrix([[c, s], [-s, c]])
            return nu * rot.T * mpmath.diag([mpmath.exp(2 * r), mpmath.exp(-2 * r)]) * rot

        nu_m = inverse_square(u[0], 1, min(2 * (e_hi + 1) - 1, cap))
        nu_p = inverse_square(u[1], nu_m, min(2 * (e_hi + 1) - nu_m, cap / nu_m))
        A, B = block(nu_m, 3), block(nu_p, 6)
        c, s = mpmath.cos(2 * mpmath.pi * u[8]), mpmath.sin(2 * mpmath.pi * u[8])
        det_alpha = mpmath.det(c**2 * A + s**2 * B)
        det_beta = mpmath.det(s**2 * A + c**2 * B)
        ppt_delta = det_alpha + det_beta - 2 * mpmath.det(c * s * (A - B))
        det = (nu_m * nu_p) ** 2
        nu = mpmath.sqrt((ppt_delta - mpmath.sqrt(ppt_delta**2 - 4 * det)) / 2)
        energy = (mpmath.sqrt(det_alpha) + mpmath.sqrt(det_beta)) / 2 - 1
        return energy, max(mpmath.mpf(0), -mpmath.log(nu)), 1 / (nu_m * nu_p)


# --- the construction the sampler used up to 0.8.0: S = L BS R ---


def _rotations(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.stack([np.stack([c, s], -1), np.stack([-s, c], -1)], -2)


def _euler_symplectics(u, r_max):
    """(N, 2, 2) rotation-squeeze-rotation samples of one mode's symplectic
    group from (N, 3) uniforms: angle, squeeze in [-r_max, r_max), angle."""
    r = r_max * (2.0 * u[:, 1] - 1.0)
    squeeze = np.stack([np.exp(r), np.exp(-r)], -1)
    return (_rotations(2.0 * np.pi * u[:, 0]) * squeeze[:, None, :]) @ _rotations(
        2.0 * np.pi * u[:, 2]
    )


def local_beam_splitter_local(u, r_max):
    """(N, 4, 4) symplectics S = L BS R from (N, 13) uniforms: the local L
    from uniforms 0-5, a beam splitter at angle 2 pi u_6, the local R from 7-12."""
    def local(v):
        out = np.zeros((len(v), 4, 4))
        out[:, :2, :2] = _euler_symplectics(v[:, :3], r_max)
        out[:, 2:, 2:] = _euler_symplectics(v[:, 3:], r_max)
        return out

    beam_splitter = np.kron(_rotations(2.0 * np.pi * u[:, 6]), np.eye(2))
    return local(u[:, :6]) @ beam_splitter @ local(u[:, 7:])


def lbsr_candidates(u, energy_window):
    """Candidates S^T diag(nu-, nu-, nu+, nu+) S with S = L BS R from
    uniforms 2-14, and which are accepted: the 4x4 products the closed-form
    kernel replaces, on the same uniforms and acceptance rule."""
    e_lo, e_hi = energy_window
    nu_hi = min(2.0 * (e_hi + 1.0) - 1.0, sampling._NU_PRODUCT_CAP)
    nu_m = sampling._inverse_square(u[:, 0], 1.0, nu_hi)
    top = np.minimum(2.0 * (e_hi + 1.0) - nu_m, sampling._NU_PRODUCT_CAP / nu_m)
    nu_p = sampling._inverse_square(u[:, 1], nu_m, top)
    S = local_beam_splitter_local(u[:, 2:15], 0.5 * np.arccosh(e_hi + 1.0))
    nu = np.stack([nu_m, nu_m, nu_p, nu_p], -1)
    sigma = S.transpose(0, 2, 1) @ (nu[:, :, None] * S)
    det_alpha, det_beta = np.linalg.det(sigma[:, :2, :2]), np.linalg.det(sigma[:, 2:, 2:])
    energy = (np.sqrt(det_alpha) + np.sqrt(det_beta)) / 2.0 - 1.0
    return sigma, (top > nu_m) & (e_lo <= energy) & (energy <= e_hi)


def accepted_uniforms(seed, count, window):
    """(count, 16) uniforms of the attempt each index in [0, count) accepts."""
    u_acc = np.empty((count, sampling.GAUSSIAN_WORDS))
    pending = np.arange(count)
    attempt = 0
    while pending.size:
        words = sampling.stream_words(seed, "gaussian", 0, count, sampling.GAUSSIAN_WORDS, attempt)
        u = sampling.uniforms(words)[pending]
        ok = sampling._accepted(u, window)
        u_acc[pending[ok]] = u[ok]
        pending = pending[~ok]
        attempt += 1
    return u_acc


def mp_energy_purity(u, window):
    """50-digit (energy, purity) of the candidate of one row of 16 uniforms,
    built as S^T diag(nu-, nu-, nu+, nu+) S with S = L BS R."""
    with mpmath.workdps(50):
        u = [mpmath.mpf(float(x)) for x in u]
        e_hi = mpmath.mpf(window[1])
        r_max = mpmath.acosh(e_hi + 1) / 2
        cap = mpmath.mpf(sampling._NU_PRODUCT_CAP)

        def inverse_square(x, lo, hi):
            return 1 / (1 / lo - x * (1 / lo - 1 / hi))

        def rot(k):
            t = 2 * mpmath.pi * u[k]
            return mpmath.matrix([[mpmath.cos(t), mpmath.sin(t)], [-mpmath.sin(t), mpmath.cos(t)]])

        def mode(k):
            r = r_max * (2 * u[k + 1] - 1)
            return rot(k) * mpmath.diag([mpmath.exp(r), mpmath.exp(-r)]) * rot(k + 2)

        def local(k):
            out = mpmath.zeros(4, 4)
            out[0:2, 0:2] = mode(k)
            out[2:4, 2:4] = mode(k + 3)
            return out

        nu_m = inverse_square(u[0], 1, min(2 * (e_hi + 1) - 1, cap))
        nu_p = inverse_square(u[1], nu_m, min(2 * (e_hi + 1) - nu_m, cap / nu_m))
        bs = mpmath.zeros(4, 4)
        c, s = rot(8)[0, 0], rot(8)[0, 1]
        bs[0, 0] = bs[1, 1] = bs[2, 2] = bs[3, 3] = c
        bs[0, 2] = bs[1, 3] = s
        bs[2, 0] = bs[3, 1] = -s
        S = local(2) * bs * local(9)
        sigma = S.T * mpmath.diag([nu_m, nu_m, nu_p, nu_p]) * S
        energy = (mpmath.sqrt(mpmath.det(sigma[0:2, 0:2]))
                  + mpmath.sqrt(mpmath.det(sigma[2:4, 2:4]))) / 2 - 1
        return energy, 1 / (nu_m * nu_p)


KERNEL_WINDOWS = [(0.0, 2.0), (1.0, 2.0), (20.0, 40.0), (50.0, 100.0)]


class TestCandidateKernel:
    @given(SEEDS, st.sampled_from(KERNEL_WINDOWS))
    @settings(max_examples=12, deadline=None)
    def test_only_seven_uniforms_reach_a_candidate(self, seed, window):
        words = [sampling.stream_words(seed, "gaussian", 0, 256, sampling.GAUSSIAN_WORDS, k)
                 for k in (0, 1)]
        u, other = map(sampling.uniforms, words)
        cancelled = [2, 5, *range(9, 16)]
        mixed = u.copy()
        mixed[:, cancelled] = other[:, cancelled]
        sigma, ok = sampling.candidate_covariances(u, window), sampling._accepted(u, window)
        mixed_sigma = sampling.candidate_covariances(mixed, window)
        mixed_ok = sampling._accepted(mixed, window)
        assert np.array_equal(sigma, mixed_sigma)
        assert np.array_equal(ok, mixed_ok)
        assert np.array_equal(sampling._gaussian_records(u[ok], window)[0],
                              sampling._gaussian_records(mixed[ok], window)[0])

    @pytest.mark.parametrize("window", KERNEL_WINDOWS)
    def test_candidates_carry_their_drawn_spectrum(self, window):
        # the matrices have the symplectic eigenvalues the records take P from
        u = sampling.uniforms(sampling.stream_words(7, "gaussian", 0, 2048,
                                                    sampling.GAUSSIAN_WORDS))
        sigma, ok = sampling.candidate_covariances(u, window), sampling._accepted(u, window)
        nu_m, nu_p = sampling._drawn_parameters(u[ok], window[1])[:2]
        for cm, want in zip(sigma[ok], np.stack([nu_m, nu_p], -1)):
            assert np.allclose(oracles.cm_symplectic_eigenvalues(cm), want, rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("window", KERNEL_WINDOWS)
    def test_candidates_are_exactly_symmetric(self, window):
        u = sampling.uniforms(sampling.stream_words(7, "gaussian", 0, 2048,
                                                    sampling.GAUSSIAN_WORDS))
        sigma = sampling.candidate_covariances(u, window)
        assert np.array_equal(sigma, sigma.transpose(0, 2, 1))
        sigma = oracles.sampled_covariances(7, 0, 256, window)
        assert np.array_equal(sigma, sigma.transpose(0, 2, 1))

    @pytest.mark.parametrize("window", [(20.0, 40.0), (50.0, 100.0)])
    def test_energy_and_purity_against_mpmath(self, window):
        count = 200
        u = accepted_uniforms(7, count, window)
        assert np.array_equal(u, sampling._accepted_candidates(7, 0, count, window))
        values, _ = sampling.gaussian_records_chunk(7, 0, count, window)
        for row, (en, _, pur) in zip(u, values):
            want_en, want_pur = mp_energy_purity(row, window)
            assert abs(en - float(want_en)) <= 1e-10
            assert abs(pur - float(want_pur)) <= 1e-10

    @given(SEEDS, st.sampled_from(KERNEL_WINDOWS))
    @settings(max_examples=16, deadline=None)
    def test_matches_the_lbsr_construction(self, seed, window):
        u = sampling.uniforms(sampling.stream_words(seed, "gaussian", 0, 512,
                                                    sampling.GAUSSIAN_WORDS))
        old, old_ok = lbsr_candidates(u, window)
        sigma, ok = sampling.candidate_covariances(u, window), sampling._accepted(u, window)
        assert np.array_equal(ok, old_ok)
        old_rows = gaussian.reduce_to_standard_form(old[ok])
        rows = gaussian.reduce_to_standard_form(sigma[ok])

        def flags(params):
            sf = gaussian.StandardFormCM(*params.T)
            return sampling._gaussian_flags(*(f(sf, check=False) for f in (
                gaussian.energy, gaussian.log_negativity, gaussian.purity)))

        assert np.array_equal(flags(rows), flags(old_rows))
        # each entry of the 4x4 products carries roundoff of order eps tr(sigma),
        # which sqrt(Det alpha), sqrt(Det beta) and the local symplectics
        # scale by tr(sigma) / min(a, b)
        trace = np.trace(old[ok], axis1=1, axis2=2)
        scale = gaussian.EPS * trace**2 / np.minimum(old_rows[:, 0], old_rows[:, 1])
        assert np.all(np.abs(rows - old_rows) <= 16.0 * scale[:, None])


@st.composite
def chunk_splits(draw, max_count):
    """(count, [(start, n), ...]): a split of [0, count) into consecutive chunks."""
    count = draw(st.integers(1, max_count))
    cuts = sorted(draw(st.sets(st.integers(1, count - 1), max_size=6))) if count > 1 else []
    bounds = [0, *cuts, count]
    return count, [(lo, hi - lo) for lo, hi in zip(bounds[:-1], bounds[1:])]


class TestPhiloxStream:
    @given(SEEDS, chunk_splits(300), st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_qubit_chunking_is_bit_identical(self, seed, split, rank):
        count, chunks = split
        values, flags = sampling.qubit_records_chunk(seed, 0, count, rank)
        parts = [sampling.qubit_records_chunk(seed, start, n, rank) for start, n in chunks]
        assert np.array_equal(values, np.concatenate([v for v, _ in parts]))
        assert np.array_equal(flags, np.concatenate([f for _, f in parts]))

    @given(SEEDS, chunk_splits(40))
    @settings(max_examples=20, deadline=None)
    def test_gaussian_chunking_is_bit_identical(self, seed, split):
        count, chunks = split
        values, flags = sampling.gaussian_records_chunk(seed, 0, count)
        parts = [sampling.gaussian_records_chunk(seed, start, n) for start, n in chunks]
        assert np.array_equal(values, np.concatenate([v for v, _ in parts]))
        assert np.array_equal(flags, np.concatenate([f for _, f in parts]))

    @pytest.mark.parametrize("start,count", [(0, 50), (7, 1), (3, 4096), (40, 11)])
    def test_rows_of_an_index_ignore_start_and_count(self, start, count):
        for rank in (1, 2, 3, 4):
            rhos, A = sampling._qubit_states_chunk(17, start, count, rank)
            for i in (start, start + count // 2, start + count - 1):
                one_rho, one_A = sampling._qubit_states_chunk(17, i, 1, rank)
                assert np.array_equal(rhos[i - start].view(np.uint64), one_rho[0].view(np.uint64))
                assert np.array_equal(A[i - start].view(np.uint64), one_A[0].view(np.uint64))

    def test_words_sit_at_their_counter_block(self):
        # attempt k of index i starts at word (k * 2**40 + i) * W of the keyed stream,
        # and the uniform map is the one numpy's Generator.random applies
        seed, i, k, width = 5, 9, 3, sampling.GAUSSIAN_WORDS
        words = sampling.stream_words(seed, "gaussian", i, 2, width, attempt=k)
        bits = np.random.Philox(key=[seed, 2])
        bits.advance((k * 2**40 + i) * width // 4)
        assert np.array_equal(sampling.uniforms(words).ravel(), np.random.Generator(bits).random(2 * width))

    def test_threads_draw_the_serial_words(self):
        # each call builds its own generator, so concurrent calls share no state
        rng = np.random.default_rng(5)
        triples = [(int(rng.integers(0, 1 << 64, dtype=np.uint64)), int(rng.integers(1 << 20)),
                    int(rng.integers(4))) for _ in range(32)]

        def draw(seed, start, attempt):
            return sampling.stream_words(seed, "qubit", start, 64, sampling.QUBIT_WORDS, attempt)

        serial = [draw(*t) for t in triples]
        shifts = (0, 8, 16, 24)
        barrier = threading.Barrier(len(shifts))

        def draw_rotated(shift):
            barrier.wait(timeout=60)
            return [draw(*t) for t in triples[shift:] + triples[:shift]]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(len(shifts)) as pool:
                results = list(pool.map(draw_rotated, shifts, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for shift, words in zip(shifts, results):
            for got, want in zip(words, serial[shift:] + serial[:shift]):
                assert np.array_equal(got, want)

    def test_systems_draw_distinct_streams(self):
        qubit_words = sampling.stream_words(3, "qubit", 0, 4, 16)
        gaussian_words = sampling.stream_words(3, "gaussian", 0, 4, 16)
        assert not np.any(qubit_words == gaussian_words)

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_states_match_the_ginibre_draw_in_distribution(self, rank):
        # two-sample Kolmogorov-Smirnov against the full Ginibre matrix of
        # another seed; at rank 1 both purities are 1 up to roundoff
        n = 2 * sampling.CHUNK
        rhos, A = sampling._qubit_states_chunk(7, 0, n, rank)
        oracle = oracles.ginibre_states(8, 0, n, rank)
        pairs = [(qubit.energy(rhos, check=False), qubit.energy(oracle, check=False)),
                 (qubit.concurrence(rhos, check=False, factor=A),
                  qubit.concurrence(oracle, check=False))]
        if rank > 1:
            pairs.append((qubit.purity(rhos, check=False), qubit.purity(oracle, check=False)))
        for drawn, ginibre in pairs:
            assert ks_2samp(drawn, ginibre).pvalue > 1e-3

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_mean_purity_and_energy_are_exact(self, rank):
        # Hilbert-Schmidt means of rank k: E[P] = (4 + k)/(4k + 1) and, by the
        # symmetry |00> <-> |11>, E[E] = 1; at rank 1 every purity is 1 up to
        # its own roundoff, which the few-eps term allows
        values, _ = sampling.qubit_records_chunk(2024, 0, 20_000, rank)
        for column, exact in ((0, 1.0), (2, (4 + rank) / (4 * rank + 1))):
            x = values[:, column]
            se = x.std(ddof=1) / np.sqrt(x.size)
            assert abs(x.mean() - exact) <= 5.0 * se + 4.0 * np.finfo(float).eps

    def test_mean_purity_is_hilbert_schmidt(self):
        purity = sampling.qubit_records_chunk(31, 0, 20_000)[0][:, 2]
        se = purity.std(ddof=1) / np.sqrt(purity.size)
        assert abs(purity.mean() - 8.0 / 17.0) <= 5.0 * se

    def test_rejection_rounds_keep_each_index_first_accepted_attempt(self):
        window = (1.0, 2.0)
        accepted = sampling._accepted_candidates(8, 100, 30, window)
        for i, row in enumerate(accepted):
            for k in range(sampling.MAX_ATTEMPTS):
                u = sampling.uniforms(
                    sampling.stream_words(8, "gaussian", 100 + i, 1, sampling.GAUSSIAN_WORDS, k)
                )
                if sampling._accepted(u, window)[0]:
                    break
            assert np.array_equal(row, u[0])

    def test_qubit_states_are_drawn_once(self, monkeypatch):
        drawn = []
        real = sampling.stream_words

        def counting(seed, system, start, count, *args, **kwargs):
            drawn.append(count)
            return real(seed, system, start, count, *args, **kwargs)

        monkeypatch.setattr(sampling, "stream_words", counting)
        cfg = sampling.SamplerConfig(seed=4, count=sampling.CHUNK + 5)
        chunks = [sampling.records_chunk(cfg, start, min(sampling.CHUNK, cfg.count - start))
                  for start in range(0, cfg.count, sampling.CHUNK)]
        assert sum(len(values) for values, _ in chunks) == cfg.count
        assert drawn == [sampling.CHUNK, 5]


class TestConditionedSamplers:
    def test_state_with_purity(self):
        rng = np.random.default_rng(0)
        for P in (0.3, 0.5, 0.75, 0.95):
            rho = oracles.random_state_with_purity(P, rng)
            qubit.validate_state(rho)
            assert qubit.purity(rho) == pytest.approx(P, abs=1e-9)
        with pytest.raises(DomainError):
            oracles.random_state_with_purity(0.1, rng)

    def test_standard_form_at_fixed_coordinates(self):
        rng = np.random.default_rng(0)
        for E, P in ((1.0, 0.5), (2.0, 0.5), (2.0, 0.9), (0.7, 0.36)):
            sf = oracles.random_standard_form_at(E, P, rng)
            assert gaussian.is_physical(sf)
            assert gaussian.energy(sf) == pytest.approx(E, abs=1e-9)
            assert gaussian.purity(sf) == pytest.approx(P, abs=1e-9)


class TestBoundaryTables:
    def test_qubit_separable_values(self):
        header, table = sampling.boundary_tables("qubit", [0.0, 0.5, 1.0], "separable")
        assert header == ["energy", "min_purity"]
        assert table.shape == (3, 2) and table.dtype == float
        assert table[:, 0].tolist() == [0.0, 0.5, 1.0]
        assert table[:, 1].tolist() == pytest.approx([1.0, 3.0 / 8.0, 0.25])

    def test_gaussian_band_at_unit_energy(self):
        header, table = sampling.boundary_tables("gaussian", [1.0], "band")
        assert table.shape == (1, 3)
        assert table[0].tolist() == pytest.approx((1.0, 0.25, 1.0 / 3.0))

    def test_empty_grid_gives_empty_table(self):
        widths = {"separable": 2, "mems": 4, "pure": 2, "band": 3, "tmsv": 2, "gmems": 2,
                  "glems": 2}
        for curve, width in widths.items():
            system = "qubit" if curve in sampling.QUBIT_CURVES else "gaussian"
            energy = 2.0 if curve in ("gmems", "glems") else None
            header, table = sampling.boundary_tables(system, [], curve, energy)
            assert len(header) == width
            assert table.shape == (0, width)

    @pytest.mark.parametrize("system,curve,grid,row", [
        ("qubit", "separable", [0.0, 0.3, 1.7, 2.0],
         lambda g: (qubit.separable_min_purity(g),)),
        ("qubit", "mems", [0.0, 0.5, 2.0 / 3.0, 0.9, 1.0],
         lambda g: (qubit.mems_purity(g), *qubit.mems_energy_range(g))),
        ("qubit", "pure", [0.0, 0.4, 2.0], lambda g: (qubit.pure_circle_concurrence(g),)),
        ("gaussian", "band", [0.0, 0.7, 1e4], gaussian.separability_band),
        ("gaussian", "tmsv", [0.0, 2.224, 1e4],
         lambda g: (gaussian.log_negativity(gaussian.two_mode_squeezed_vacuum(g)),)),
        ("gaussian", "gmems", [1.0 / 9.0, 0.5, 1.0],
         lambda g: (gaussian.log_negativity(gaussian.gmems(2.0, g)),)),
        ("gaussian", "glems", [0.2, 0.5, 1.0],
         lambda g: (gaussian.log_negativity(gaussian.glems(2.0, g)),)),
    ])
    def test_one_array_call_equals_per_point_calls(self, system, curve, grid, row):
        energy = 2.0 if curve in ("gmems", "glems") else None
        _, table = sampling.boundary_tables(system, grid, curve, energy)
        assert table.tolist() == [[g, *row(g)] for g in grid]

    def test_fixed_energy_curves(self):
        header, table = sampling.boundary_tables("gaussian", [0.5, 0.8], "gmems", energy=2.0)
        assert header == ["purity", "log_negativity"]
        assert table[0, 1] == pytest.approx(
            gaussian.log_negativity(gaussian.gmems(2.0, 0.5)), abs=1e-12
        )
        with pytest.raises(DomainError):
            sampling.boundary_tables("gaussian", [0.5], "gmems")

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            sampling.boundary_tables("qubit", [3.0], "separable")
        with pytest.raises(DomainError):
            sampling.boundary_tables("qubit", [0.5], "nosuch")
        with pytest.raises(DomainError):
            sampling.boundary_tables("qubit", [0.5, 1.5], "mems")
        with pytest.raises(DomainError):
            sampling.boundary_tables("gaussian", [0.5, 0.3], "glems", energy=1.0)

    def test_non_finite_rows_raise(self):
        with pytest.raises(DomainError, match="'tmsv' is not finite at grid point 90000000.0$"):
            sampling.boundary_tables("gaussian", [1.0, 9e7], "tmsv")
        with pytest.raises(DomainError, match="'gmems' is not finite at grid point 1.0$"):
            sampling.boundary_tables("gaussian", [0.5, 1.0], "gmems", energy=1e8)
        # the finite rows below the overflow are tabulated
        _, table = sampling.boundary_tables("gaussian", [1.0, 1e6], "tmsv")
        assert np.isfinite(table).all()


class TestRecord:
    def test_flag_string(self):
        assert sampling.flag_labels([True, True, False]) == b"110"
        assert sampling.flag_labels(np.array([False, True, True])) == b"011"
        labels = sampling.flag_labels(np.array([[True, False, False], [False, False, True]]))
        assert list(labels) == [b"100", b"001"]
