"""Sampler determinism, containment flags and boundary tables."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epe import gaussian, qubit, sampling
from epe.errors import ConfigurationError, DomainError


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
            sampling.qubit_normals(1, 2**40 - 2, 2)

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
        runs = [list(sampling.sample_qubit_states(cfg)) for _ in range(2)]
        for (rho_a, rec_a), (rho_b, rec_b) in zip(*runs):
            assert np.array_equal(rho_a, rho_b)
            assert rec_a == rec_b
        # chunk-by-chunk computation agrees with per-index construction
        vals, _ = sampling.qubit_records_chunk(42, 0, 10)
        lo, _ = sampling.qubit_records_chunk(42, 0, 4)
        hi, _ = sampling.qubit_records_chunk(42, 4, 6)
        assert np.array_equal(vals, np.concatenate([lo, hi]))

    def test_rank_filter_one_gives_pure_states(self):
        cfg = sampling.SamplerConfig(seed=3, count=200, rank_filter=1)
        for rho, rec in sampling.sample_qubit_states(cfg):
            assert rec.purity == pytest.approx(1.0, abs=1e-10)

    def test_records_match_direct_measures(self):
        cfg = sampling.SamplerConfig(seed=9, count=100)
        for rho, rec in sampling.sample_qubit_states(cfg):
            assert rec.energy == pytest.approx(qubit.energy(rho), abs=1e-12)
            assert rec.purity == pytest.approx(qubit.purity(rho), abs=1e-12)
            assert rec.entanglement == pytest.approx(qubit.concurrence(rho), abs=1e-9)

    def test_flags_hold_on_all_samples(self):
        for rank in (1, 2, 3, 4):
            _, flags = sampling.qubit_records_chunk(7, 0, 5000, rank=rank)
            assert flags.all()

    def test_measure_column(self):
        cfg = sampling.SamplerConfig(seed=5, count=50, measure="eof")
        for rho, rec in sampling.sample_qubit_states(cfg):
            assert rec.entanglement == pytest.approx(
                qubit.entanglement_of_formation(rho), abs=1e-9
            )

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
        a = list(sampling.sample_gaussian_states(cfg))
        b = list(sampling.sample_gaussian_states(cfg))
        assert a == b

    def test_samples_physical_and_in_window(self):
        cfg = sampling.SamplerConfig(seed=1, count=300, system="gaussian")
        for sf, rec in sampling.sample_gaussian_states(cfg):
            assert gaussian.is_physical(sf)
            assert 0.0 - 1e-12 <= rec.energy <= 2.0 + 1e-12
            assert rec.flags == "111"

    def test_containment_bounds(self):
        _, values, flags = sampling.gaussian_records_chunk(12, 0, 2000)
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
        energies = np.array([rec.energy for _, rec in sampling.sample_gaussian_states(cfg)])
        assert np.all((lo - 1e-12 <= energies) & (energies <= hi + 1e-12))
        rng = np.random.default_rng(7)
        for _ in range(50):
            sf = gaussian.reduce_to_standard_form(sampling.random_covariance(rng, window))
            assert lo - 1e-12 <= gaussian.energy(sf) <= hi + 1e-12

    def test_narrow_window_raises_configuration_error(self):
        # a sliver at the top of the window is essentially never hit
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError):
            sampling.random_covariance(rng, energy_window=(2.0 - 1e-7, 2.0), max_attempts=200)


WINDOWS = [(0.0, 2.0), (1.0, 2.0), (3.0, 3.5), (0.0, 0.05)]


def scalar_record(sf, measure):
    """((E, entanglement, P), flags) of one standard form from the scalar measures.

    The per-record logic that `sampling.gaussian_records` vectorizes, kept
    as its oracle.
    """
    en = gaussian.energy(sf)
    pur = gaussian.purity(sf)
    logneg = gaussian.log_negativity(sf)
    ent = logneg if measure == "logneg" else gaussian.negativity(sf)
    tmsv_ln = float(np.arccosh(max(en + 1.0, 1.0)))
    on_curve = pur < 1.0 - sampling.PURE_TOL or abs(logneg - tmsv_ln) <= 1e-6
    if en > 0.0:
        p_ref = min(max(pur, 1.0 / (en + 1.0) ** 2), 1.0)
        bound = gaussian.log_negativity(gaussian.gmems(en, p_ref))
    else:
        bound = 0.0
    below = logneg <= bound + sampling.FLAG_TOL
    in_band = logneg <= 0.0 or pur > 1.0 / (2.0 * en + 1.0) - sampling.FLAG_TOL
    return (en, ent, pur), (on_curve, below, in_band)


class TestGaussianRecords:
    @given(st.integers(0, 2**64 - 1), st.sampled_from(WINDOWS),
           st.sampled_from(sampling.GAUSSIAN_MEASURES))
    @settings(max_examples=25, deadline=None)
    def test_values_match_block_invariants(self, seed, window, measure):
        cms = sampling.gaussian_covariances_chunk(seed, 0, 64, window)
        _, values, _ = sampling.gaussian_records_chunk(seed, 0, 64, window, measure)
        for cm, (en, ent, pur) in zip(cms, values):
            da, db, dg, ds, _ = gaussian.cm_block_invariants(cm)
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
        params, values, flags = sampling.gaussian_records_chunk(seed, 0, 64, window, measure)
        for row, got_values, got_flags in zip(params.tolist(), values, flags):
            want_values, want_flags = scalar_record(gaussian.StandardFormCM(*row), measure)
            assert tuple(got_flags) == want_flags
            assert np.allclose(got_values, want_values, rtol=0.0, atol=1e-12)

    @given(st.floats(0.01, 3.0), st.floats(0.0, 1.0), st.sampled_from(sampling.GAUSSIAN_MEASURES))
    @settings(max_examples=50, deadline=None)
    def test_extremal_records_match_the_scalar_logic(self, E, t, measure):
        # states on the frontiers the flags test: pure, GMEMS, GLEMS and separable ones
        P = 1.0 / (E + 1.0) ** 2 + t * (1.0 - 1.0 / (E + 1.0) ** 2)
        sfs = [
            gaussian.two_mode_squeezed_vacuum(E),
            gaussian.gmems(E, P),
            gaussian.maximally_mixed(E),
            gaussian.thermal_product(E, 0.0),
            gaussian.StandardFormCM(1.0, 1.0, 0.0, 0.0),
        ]
        if P >= 1.0 / (2.0 * E + 1.0):
            sfs.append(gaussian.glems(E, P))
        # the scalar measures reject a few exactly pure states, whose nu_- from
        # the invariants rounds below 1 - 1e-10
        sfs = [sf for sf in sfs if gaussian.is_physical(sf)]
        params = np.array([[sf.a, sf.b, sf.c_plus, sf.c_minus] for sf in sfs])
        values, flags = sampling.gaussian_records(params, measure)
        for sf, got_values, got_flags in zip(sfs, values, flags):
            want_values, want_flags = scalar_record(sf, measure)
            assert tuple(got_flags) == want_flags
            assert np.allclose(got_values, want_values, rtol=0.0, atol=1e-12)


@st.composite
def chunk_splits(draw, max_count):
    """(count, [(start, n), ...]): a split of [0, count) into consecutive chunks."""
    count = draw(st.integers(1, max_count))
    cuts = sorted(draw(st.sets(st.integers(1, count - 1), max_size=6))) if count > 1 else []
    bounds = [0, *cuts, count]
    return count, [(lo, hi - lo) for lo, hi in zip(bounds[:-1], bounds[1:])]


SEEDS = st.integers(0, 2**64 - 1)


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
        _, values, flags = sampling.gaussian_records_chunk(seed, 0, count)
        parts = [sampling.gaussian_records_chunk(seed, start, n) for start, n in chunks]
        assert np.array_equal(values, np.concatenate([v for _, v, _ in parts]))
        assert np.array_equal(flags, np.concatenate([f for _, _, f in parts]))

    @pytest.mark.parametrize("start,count", [(0, 50), (7, 1), (3, 4096), (40, 11)])
    def test_normals_of_an_index_ignore_start_and_count(self, start, count):
        chunk = sampling.qubit_normals(17, start, count)
        for i in (start, start + count // 2, start + count - 1):
            assert np.array_equal(chunk[i - start], sampling.qubit_normals(17, i, 1)[0])

    def test_words_sit_at_their_counter_block(self):
        # attempt k of index i starts at word (k * 2**40 + i) * W of the keyed stream,
        # and the uniform map is the one numpy's Generator.random applies
        seed, i, k, width = 5, 9, 3, sampling.GAUSSIAN_WORDS
        words = sampling.stream_words(seed, "gaussian", i, 2, width, attempt=k)
        bits = np.random.Philox(key=[seed, 2])
        bits.advance((k * 2**40 + i) * width // 4)
        assert np.array_equal(sampling.uniforms(words).ravel(), np.random.Generator(bits).random(2 * width))

    def test_systems_draw_distinct_streams(self):
        qubit_words = sampling.stream_words(3, "qubit", 0, 4, 16)
        gaussian_words = sampling.stream_words(3, "gaussian", 0, 4, 16)
        assert not np.any(qubit_words == gaussian_words)

    def test_box_muller_moments(self):
        z = sampling.qubit_normals(2024, 0, 625).ravel()  # 20k normals
        n = z.size
        assert abs(z.mean()) <= 5.0 * z.std(ddof=1) / np.sqrt(n)
        sq = (z - z.mean()) ** 2
        assert abs(sq.mean() - 1.0) <= 5.0 * sq.std(ddof=1) / np.sqrt(n)

    def test_mean_purity_is_hilbert_schmidt(self):
        purity = sampling.qubit_records_chunk(31, 0, 20_000)[0][:, 2]
        se = purity.std(ddof=1) / np.sqrt(purity.size)
        assert abs(purity.mean() - 8.0 / 17.0) <= 5.0 * se

    def test_rejection_rounds_keep_each_index_first_accepted_attempt(self):
        window = (1.0, 2.0)
        sigmas = sampling.gaussian_covariances_chunk(8, 100, 30, window)
        for i, sigma in enumerate(sigmas):
            for k in range(sampling.MAX_ATTEMPTS):
                u = sampling.uniforms(
                    sampling.stream_words(8, "gaussian", 100 + i, 1, sampling.GAUSSIAN_WORDS, k)
                )
                candidate, ok = sampling.candidate_covariances(u, window)
                if ok[0]:
                    break
            assert np.array_equal(sigma, candidate[0])

    def test_qubit_states_are_drawn_once(self, monkeypatch):
        drawn = []
        real = sampling.stream_words

        def counting(seed, system, start, count, *args, **kwargs):
            drawn.append(count)
            return real(seed, system, start, count, *args, **kwargs)

        monkeypatch.setattr(sampling, "stream_words", counting)
        cfg = sampling.SamplerConfig(seed=4, count=sampling.CHUNK + 5)
        assert sum(1 for _ in sampling.sample_qubit_states(cfg)) == cfg.count
        assert sum(drawn) == cfg.count


class TestConditionedSamplers:
    def test_state_with_purity(self):
        rng = np.random.default_rng(0)
        for P in (0.3, 0.5, 0.75, 0.95):
            rho = sampling.random_state_with_purity(P, rng)
            qubit.validate_state(rho)
            assert qubit.purity(rho) == pytest.approx(P, abs=1e-9)
        with pytest.raises(DomainError):
            sampling.random_state_with_purity(0.1, rng)

    def test_standard_form_at_fixed_coordinates(self):
        rng = np.random.default_rng(0)
        for E, P in ((1.0, 0.5), (2.0, 0.5), (2.0, 0.9), (0.7, 0.36)):
            sf = sampling.random_standard_form_at(E, P, rng)
            assert gaussian.is_physical(sf)
            assert gaussian.energy(sf) == pytest.approx(E, abs=1e-9)
            assert gaussian.purity(sf) == pytest.approx(P, abs=1e-9)


class TestBoundaryTables:
    def test_qubit_separable_values(self):
        header, rows = sampling.boundary_tables("qubit", [0.0, 0.5, 1.0], "separable")
        assert header == ["energy", "min_purity"]
        assert [r[1] for r in rows] == pytest.approx([1.0, 3.0 / 8.0, 0.25])

    def test_gaussian_band_at_unit_energy(self):
        header, rows = sampling.boundary_tables("gaussian", [1.0], "band")
        assert rows[0] == pytest.approx((1.0, 0.25, 1.0 / 3.0))

    def test_empty_grid_gives_empty_table(self):
        _, rows = sampling.boundary_tables("qubit", [], "separable")
        assert rows == []

    def test_fixed_energy_curves(self):
        header, rows = sampling.boundary_tables("gaussian", [0.5, 0.8], "gmems", energy=2.0)
        assert header == ["purity", "log_negativity"]
        assert rows[0][1] == pytest.approx(
            gaussian.log_negativity(gaussian.gmems(2.0, 0.5)), abs=1e-12
        )
        with pytest.raises(DomainError):
            sampling.boundary_tables("gaussian", [0.5], "gmems")

    def test_all_curves_mode(self):
        tables = sampling.boundary_tables("qubit", [0.3, 0.6], curve=None)
        assert set(tables) == {"separable", "mems", "pure"}

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            sampling.boundary_tables("qubit", [3.0], "separable")
        with pytest.raises(DomainError):
            sampling.boundary_tables("qubit", [0.5], "nosuch")


class TestRecord:
    def test_flag_string(self):
        rec = sampling.EPERecord(1.0, 0.5, 0.8, True, True, False)
        assert rec.flags == "110"
