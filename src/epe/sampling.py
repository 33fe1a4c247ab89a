"""Seeded Monte-Carlo sampling of two-qubit states and two-mode Gaussian CMs.

Determinism contract: every sample is a pure function of (seed, index).
All randomness comes from one counter-based Philox4x64 stream per system
(Salmon et al., SC'11, "Parallel random numbers: as easy as 1, 2, 3"),
named STREAM and stamped into every sample manifest.  Its 128-bit key
is the seed in the low 64 bits and a system tag in the high 64 bits.
The stream is cut into blocks of W uint64 words; attempt k of index i
owns block k * 2**40 + i, i.e. words [block * W, (block + 1) * W).  A
chunk of consecutive indices is therefore one contiguous `random_raw`
call per attempt, on a generator built from that key and counter (none
is kept between calls), and chunked or parallel generation emits
byte-identical records in index order no matter how the work is split.
Words become uniforms in [0, 1) as (word >> 11) * 2**-53 and complex
normals by Box-Muller, which consumes a fixed number of words, so every
offset is exact.

Two-qubit states (W = 32) are drawn from the Ginibre construction
rho = G G^dag / Tr(G G^dag) with G a 4 x k standard complex normal
matrix (k = rank filter, default 4: the first k columns of a 4 x 4
draw), i.e. the Hilbert-Schmidt measure at full rank.  Gaussian states
(W = 16) are BS^T (nu_- M1 (+) nu_+ M2) BS in closed form: a symplectic
spectrum, a squeezed and rotated block per mode and a beam-splitter mix,
from uniforms 0, 1, 3, 4, 6, 7 and 8; the others would only add local
symplectics that cancel (`candidate_covariances`).  A candidate is
accepted when its standard-form energy lies in the energy window.

Records are computed a chunk at a time: `qubit_records` evaluates the
stacked `qubit` measures on the (N, 4, 4) stack of states (concurrence
from the drawn factors A = G / sqrt(Tr(G G^dag)); states whose
det(rho^Gamma) shows them PPT get C = 0 without the Jacobi kernel, with
the kernel's bits), and `_gaussian_records` the stacked `gaussian`
measures on the (N, 4) standard forms of one
`gaussian.reduce_to_standard_form` call.  Both return an (N, 3) value
array and an (N, 3) array of containment flags.  A Gaussian record's
energy is, bit for bit, the `candidate_energy` its candidate was
accepted on.  The reduction is handed the spectrum (nu_-, nu_+) each
accepted candidate was drawn with and checks its rows' Det sigma and
Delta against it, then their physicality, so a Gaussian chunk makes no
LAPACK call and its measures run with check=False.
`records_chunk` is the one dispatch on a run's system, and
`sample_states` yields its (state, EPERecord) pairs.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from . import gaussian, qubit
from .errors import ConfigurationError, DomainError

FLAG_TOL = 1e-9
PURE_TOL = 1e-9
SEPARABLE_TOL = 1e-12
CHUNK = 4096

QUBIT_MEASURES = ("concurrence", "negativity", "logneg", "eof")
GAUSSIAN_MEASURES = ("logneg", "negativity")
DEFAULT_ENERGY_WINDOW = (0.0, 2.0)

STREAM = "philox-v1"
# high 64 bits of the Philox key, so each system draws its own stream
_SYSTEM_TAG = {"qubit": 1, "gaussian": 2}
# indices per stream; attempt k of index i owns block k * INDEX_LIMIT + i
INDEX_LIMIT = 1 << 40
QUBIT_WORDS = 32
GAUSSIAN_WORDS = 16
MAX_ATTEMPTS = 1000


def _check_stream_range(seed, stop):
    """Reject a seed outside [0, 2**64) or sample indices reaching 2**40."""
    if not 0 <= seed < 1 << 64:
        raise ConfigurationError("seed must lie in [0, 2**64)")
    if stop >= INDEX_LIMIT:
        raise ConfigurationError("count must be below 2**40")


@dataclass(frozen=True)
class SamplerConfig:
    """Configuration of one sampling run.

    `seed`, `count` and a `rank_filter` must be integers (anything
    `operator.index` takes, stored as int).  `rank_filter` applies to the
    qubit system only and `energy_window`, two real numbers (lo, hi), to the
    gaussian system only; a window of None means DEFAULT_ENERGY_WINDOW there.
    """

    seed: int
    count: int
    system: str = "qubit"
    rank_filter: int | None = None
    energy_window: tuple | None = None
    measure: str | None = None

    def __post_init__(self):
        for name in ("seed", "count", "rank_filter"):
            value = getattr(self, name)
            if value is None and name == "rank_filter":
                continue
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ConfigurationError(f"{name} must be an integer, got {value!r}") from None
        if self.count < 1:
            raise ConfigurationError("count must be a positive integer")
        _check_stream_range(self.seed, self.count)
        if self.system not in ("qubit", "gaussian"):
            raise ConfigurationError(f"unknown system {self.system!r}")
        if self.rank_filter is not None:
            if self.system != "qubit":
                raise ConfigurationError("the rank filter applies to system qubit only")
            if self.rank_filter not in (1, 2, 3, 4):
                raise ConfigurationError("rank filter must be in 1..4")
        if self.energy_window is None:
            if self.system == "gaussian":
                object.__setattr__(self, "energy_window", DEFAULT_ENERGY_WINDOW)
        elif self.system == "qubit":
            raise ConfigurationError("the energy window applies to system gaussian only")
        else:
            try:
                lo, hi = self.energy_window
                in_range = 0.0 <= lo < hi < np.inf
            except (TypeError, ValueError):
                raise ConfigurationError("energy window must be two real numbers (lo, hi)") from None
            if not in_range:
                raise ConfigurationError("energy window must satisfy 0 <= lo < hi < inf")
        measure = self.measure or self.default_measure()
        allowed = QUBIT_MEASURES if self.system == "qubit" else GAUSSIAN_MEASURES
        if measure not in allowed:
            raise ConfigurationError(f"measure {measure!r} not valid for {self.system}")
        object.__setattr__(self, "measure", measure)

    def default_measure(self) -> str:
        return "concurrence" if self.system == "qubit" else "logneg"


@dataclass(frozen=True)
class EPERecord:
    """EPE coordinates of one sample plus its containment flags.

    The flags are implications that must hold for every valid sample:

    on_pure_circle    pure samples lie on the pure-state boundary
                      (inside the (E-1)^2 + C^2 <= 1 disc for qubits, on
                      the squeezed-vacuum log-negativity curve for modes);
                      vacuously true for mixed samples.
    below_mems        entanglement does not exceed the maximal-entanglement
                      frontier at the sample's purity (and energy, for modes).
    in_separable_band separable-purity bounds hold: separable qubit samples
                      satisfy P >= P_min(E), entangled Gaussian samples
                      satisfy P > 1/(2E+1); vacuously true otherwise.
    """

    energy: float
    entanglement: float
    purity: float
    on_pure_circle: bool
    below_mems: bool
    in_separable_band: bool

    @property
    def flags(self) -> str:
        return flag_labels([self.on_pure_circle, self.below_mems, self.in_separable_band]).decode()


# the "110"-style label of each containment-flag triple, indexed by flags @ (4, 2, 1)
_FLAG_LABELS = np.array([format(i, "03b") for i in range(8)], dtype="S3")
_FLAG_WEIGHTS = np.array([4, 2, 1])


def flag_labels(flags):
    """Labels such as b"110" of a (..., 3) boolean array of containment flags.

    An (N, 3) array gives an (N,) array of 3 ASCII bytes each, with no
    Python object per label; a single triple gives one bytes label.
    """
    return _FLAG_LABELS[np.asarray(flags, dtype=bool) @ _FLAG_WEIGHTS]


# --- the Philox stream ---


def stream_words(seed, system, start, count, width, attempt=0) -> np.ndarray:
    """(count, width) uint64 words of attempt `attempt` for indices [start, start + count)."""
    _check_stream_range(seed, start + count)
    block = attempt * INDEX_LIMIT + start
    # Philox steps its counter before each 4-word output, so block b
    # occupies counters b * width / 4 + 1 .. (b + 1) * width / 4
    bits = np.random.Philox(
        counter=np.array([block * width // 4, 0, 0, 0], dtype=np.uint64),
        key=np.array([seed, _SYSTEM_TAG[system]], dtype=np.uint64),
    )
    return bits.random_raw(count * width).reshape(count, width)


def uniforms(words) -> np.ndarray:
    """Uniforms in [0, 1) with 53 random bits, the same map numpy's Generator.random uses."""
    return (words >> np.uint64(11)) * 2.0**-53


def box_muller(u) -> np.ndarray:
    """Complex standard normals, one per pair of uniforms along the (even) last axis.

    The first half of the uniforms sets the radii, the second half the
    angles; normal j is r_j cos(theta_j) + i r_j sin(theta_j), so its real
    and imaginary parts are two independent real standard normals.
    """
    m = u.shape[-1] // 2
    r = np.sqrt(-2.0 * np.log1p(-u[..., :m]))
    theta = 2.0 * np.pi * u[..., m:]
    z = np.empty(r.shape, dtype=complex)
    np.multiply(r, np.cos(theta), out=z.real)
    np.multiply(r, np.sin(theta), out=z.imag)
    return z


# --- two-qubit sampling ---


def qubit_normals(seed, start, count) -> np.ndarray:
    """The (count, 16) complex standard normals of each index in [start, start + count)."""
    return box_muller(uniforms(stream_words(seed, "qubit", start, count, QUBIT_WORDS)))


def _qubit_states_chunk(seed, start, count, rank):
    """(rhos, factors): the (count, 4, 4) states rho = M / Tr M, M = G G^dag,
    and their (count, 4, rank) factors A = G / sqrt(Tr M), so rho = A A^dag."""
    G = qubit_normals(seed, start, count).reshape(count, 4, 4)[:, :, :rank]
    M = G @ G.conj().transpose(0, 2, 1)
    trace = np.trace(M, axis1=1, axis2=2).real[:, None, None]
    return M / trace, G / np.sqrt(trace)


def qubit_records(rhos, factors, measure="concurrence"):
    """Vectorized records for an (N, 4, 4) stack of states.

    Returns (values, flags): an (N, 3) float array of energy,
    entanglement and purity columns and an (N, 3) boolean flag array.
    Every column comes from the stacked `qubit` measures; `factors`, an
    (N, 4, k) stack with rho = A A^dag, is handed to `qubit.concurrence`.
    """
    conc = qubit.concurrence(rhos, check=False, factor=factors)
    pur = qubit.purity(rhos, check=False)
    en = qubit.energy(rhos, check=False)

    if measure == "concurrence":
        ent = conc
    elif measure == "eof":
        ent = qubit.eof_from_concurrence(conc)
    elif measure == "negativity":
        ent = qubit.negativity(rhos, check=False)
    elif measure == "logneg":
        ent = qubit.log_negativity(rhos, check=False)
    else:
        raise ConfigurationError(f"measure {measure!r} not valid for qubit sampling")

    pure = pur >= 1.0 - PURE_TOL
    on_circle = ~pure | ((en - 1.0) ** 2 + conc**2 <= 1.0 + FLAG_TOL)
    below = conc <= qubit.mems_concurrence_bound(np.clip(pur, 0.25, 1.0)) + FLAG_TOL
    separable = conc <= SEPARABLE_TOL
    in_band = ~separable | (pur >= qubit.separable_min_purity(np.clip(en, 0.0, 2.0)) - FLAG_TOL)

    values = np.column_stack([en, ent, pur])
    flags = np.column_stack([on_circle, below, in_band])
    return values, flags


def qubit_records_chunk(seed, start, count, rank=4, measure="concurrence"):
    """(values, flags) of `qubit_records` for indices [start, start + count)."""
    rhos, factors = _qubit_states_chunk(seed, start, count, rank)
    return qubit_records(rhos, factors, measure)


# --- two-mode Gaussian sampling ---


def _mode_block(u, r_max):
    """Entries (m11, m12, m22) of Rot(phi)^T diag(e^2r, e^-2r) Rot(phi), the
    block L^T L of one mode's local symplectic L, from (N, 2) uniforms:
    squeeze r in [-r_max, r_max), angle phi = 2 pi u.  Both diagonal
    entries are sums of positive terms."""
    r = r_max * (2.0 * u[:, 0] - 1.0)
    e, f = np.exp(2.0 * r), np.exp(-2.0 * r)
    c, s = np.cos(2.0 * np.pi * u[:, 1]), np.sin(2.0 * np.pi * u[:, 1])
    return e * c * c + f * s * s, c * s * (e - f), e * s * s + f * c * c


def _inverse_square(u, lo, hi):
    # density proportional to 1/nu^2 on [lo, hi]
    return 1.0 / (1.0 / lo - u * (1.0 / lo - 1.0 / hi))


# symplectic eigenvalues are capped so sampled purities stay above ~1e-3
_NU_PRODUCT_CAP = 1.0e3


def _drawn_spectrum(u, e_hi):
    """(nu_-, nu_+, top) of (N, 16) uniforms for a window with upper energy
    e_hi: nu_+ is drawn on [nu_-, top), and the range is nonempty when
    top > nu_-."""
    nu_hi = min(2.0 * (e_hi + 1.0) - 1.0, _NU_PRODUCT_CAP)
    nu_m = _inverse_square(u[:, 0], 1.0, nu_hi)
    top = np.minimum(2.0 * (e_hi + 1.0) - nu_m, _NU_PRODUCT_CAP / nu_m)
    return nu_m, _inverse_square(u[:, 1], nu_m, top), top


def candidate_covariances(u, energy_window=DEFAULT_ENERGY_WINDOW):
    """Candidate covariance matrices from (N, 16) uniforms, and which are accepted.

    sigma = BS^T (nu_- M1 (+) nu_+ M2) BS, elementwise over the stack and
    exactly symmetric.  Uniforms 0 and 1 draw nu_- and nu_+ with density
    ~ 1/nu^2 (favoring nearly pure spectra) within ranges compatible with
    the window, (3, 4) and (6, 7) the `_mode_block`s M1 and M2, and 8 the
    beam-splitter angle 2 pi u_8.  This is S^T diag(nu-, nu-, nu+, nu+) S
    with S = L BS R less what cancels: each mode's L_i = Rot D Rot' gives
    L_i^T nu L_i = nu Rot'^T D^2 Rot' (uniforms 2 and 5 drop out), and the
    local symplectic R changes no record (9-14); 15 is unused.  Accepted
    when the spectrum range is nonempty and the `candidate_energy`, the
    energy the record reports, lies in the window.  Returns (sigma,
    (nu_-, nu_+), ok): (N, 4, 4) CMs, the (N,) spectra and (N,) bools.
    """
    e_lo, e_hi = energy_window
    r_max = 0.5 * np.arccosh(e_hi + 1.0)
    nu_m, nu_p, top = _drawn_spectrum(u, e_hi)
    A = [nu_m * m for m in _mode_block(u[:, 3:5], r_max)]
    B = [nu_p * m for m in _mode_block(u[:, 6:8], r_max)]
    theta = 2.0 * np.pi * u[:, 8]
    c, s = np.cos(theta), np.sin(theta)
    cc, ss, cs = c * c, s * s, c * s
    # the beam splitter mixes the blocks: alpha, beta and the symmetric gamma
    a11, a12, a22 = (cc * x + ss * y for x, y in zip(A, B))
    b11, b12, b22 = (ss * x + cc * y for x, y in zip(A, B))
    g11, g12, g22 = (cs * (x - y) for x, y in zip(A, B))
    sigma = np.stack([a11, a12, g11, g12,
                      a12, a22, g12, g22,
                      g11, g12, b11, b12,
                      g12, g22, b12, b22], -1).reshape(-1, 4, 4)
    energy = candidate_energy(sigma)
    return sigma, (nu_m, nu_p), (top > nu_m) & (e_lo <= energy) & (energy <= e_hi)


def candidate_energy(sigma):
    """Standard-form energies (sqrt(Det alpha) + sqrt(Det beta))/2 - 1 of (N, 4, 4) CMs.

    The energy a candidate is accepted on; `gaussian.reduce_to_standard_form`
    takes a and b from the same `gaussian.block_det`, so a record reports it
    bit for bit.
    """
    det_alpha = gaussian.block_det(sigma[:, 0, 0], sigma[:, 0, 1], sigma[:, 1, 0], sigma[:, 1, 1])
    det_beta = gaussian.block_det(sigma[:, 2, 2], sigma[:, 2, 3], sigma[:, 3, 2], sigma[:, 3, 3])
    return (np.sqrt(det_alpha) + np.sqrt(det_beta)) / 2.0 - 1.0


def _window_error(energy_window):
    return ConfigurationError(
        f"rejection rate above {100 * (1 - 1 / MAX_ATTEMPTS):.1f}% for window {energy_window}; "
        "widen the energy window"
    )


def random_covariance(rng):
    """One random physical covariance matrix inside DEFAULT_ENERGY_WINDOW.

    Draws 16 uniforms from `rng` per attempt and rejects candidates of
    `candidate_covariances` until one is accepted, in at most MAX_ATTEMPTS.
    """
    for _ in range(MAX_ATTEMPTS):
        sigma, _, ok = candidate_covariances(rng.random((1, GAUSSIAN_WORDS)))
        if ok[0]:
            return sigma[0]
    raise _window_error(DEFAULT_ENERGY_WINDOW)


def _accepted_candidates(seed, start, count, energy_window):
    """(sigmas, (nu_-, nu_+)): the (count, 4, 4) accepted CMs for indices
    [start, start + count) and the (count,) spectra they were built from.

    Rejection runs in rounds: round k draws attempt k of every index still
    pending, so each index keeps its first accepted attempt (at most
    MAX_ATTEMPTS of them).
    """
    sigmas = np.empty((count, 4, 4))
    nu_minus, nu_plus = np.empty((2, count))
    pending = np.arange(count)
    for attempt in range(MAX_ATTEMPTS):
        if not pending.size:
            break
        first = int(pending[0])
        words = stream_words(
            seed, "gaussian", start + first, int(pending[-1]) + 1 - first, GAUSSIAN_WORDS, attempt
        )
        u = uniforms(words[pending - first])
        sigma, (nu_m, nu_p), ok = candidate_covariances(u, energy_window)
        done = pending[ok]
        sigmas[done] = sigma[ok]
        nu_minus[done] = nu_m[ok]
        nu_plus[done] = nu_p[ok]
        pending = pending[~ok]
    if pending.size:
        raise _window_error(energy_window)
    return sigmas, (nu_minus, nu_plus)


def _gaussian_records(params, measure="logneg"):
    """Vectorized records for (N, 4) standard forms (a, b, c+, c-) the reduction checked.

    Returns (values, flags) like `qubit_records`.  Every column and flag
    bound is a stacked `gaussian` call with check=False: the flags compare
    the log-negativity with that of `two_mode_squeezed_vacuum(E)` for pure
    rows and of `gmems(E, P)` for all, and require P above the
    `separability_band` top 1/(2E + 1) for entangled rows.
    """
    sf = gaussian.StandardFormCM(*params.T)
    en = gaussian.energy(sf, check=False)
    pur = gaussian.purity(sf, check=False)
    logneg = gaussian.log_negativity(sf, check=False)
    if measure == "logneg":
        ent = logneg
    elif measure == "negativity":
        ent = gaussian.negativity(sf, check=False)
    else:
        raise ConfigurationError(f"measure {measure!r} not valid for gaussian sampling")

    # clamp into the families' domains; reduction roundoff can sit a hair
    # below the energy floor 0 or the purity floor 1/(E+1)^2
    e_ref = np.maximum(en, 0.0)
    p_ref = np.clip(pur, 1.0 / (e_ref + 1.0) ** 2, 1.0)
    tmsv = gaussian.log_negativity(gaussian.two_mode_squeezed_vacuum(e_ref), check=False)
    on_curve = (pur < 1.0 - PURE_TOL) | (np.abs(logneg - tmsv) <= 1e-6)
    bound = np.zeros_like(en)
    hot = en > 0.0  # the GMEMS family starts above the vacuum
    bound[hot] = gaussian.log_negativity(gaussian.gmems(en[hot], p_ref[hot]), check=False)
    below = logneg <= bound + FLAG_TOL
    _, band_top = gaussian.separability_band(e_ref)
    in_band = (logneg <= 0.0) | (pur > band_top - FLAG_TOL)

    values = np.column_stack([en, ent, pur])
    flags = np.column_stack([on_curve, below, in_band])
    return values, flags


def gaussian_records_chunk(seed, start, count, energy_window=DEFAULT_ENERGY_WINDOW,
                           measure="logneg"):
    """(params, values, flags) for indices [start, start + count).

    `params` is the (count, 4) array of standard forms (a, b, c+, c-),
    reduced in one stacked call checked against the drawn spectra; values
    and flags are their `_gaussian_records`.
    """
    sigmas, spectrum = _accepted_candidates(seed, start, count, energy_window)
    params = gaussian.reduce_to_standard_form(sigmas, spectrum=spectrum)
    return (params, *_gaussian_records(params, measure))


# --- one sampling path for both systems ---


def records_chunk(cfg: SamplerConfig, start, count, with_states=False):
    """(values, flags) of the indices [start, start + count) of the run `cfg`.

    With `with_states`, (states, values, flags): the (count, 4, 4) qubit
    stack or a list of `gaussian.StandardFormCM`.  Without, the Gaussian
    standard forms are dropped here, so pool workers do not send them back.
    """
    if cfg.system == "qubit":
        rank = cfg.rank_filter or 4
        if not with_states:
            return qubit_records_chunk(cfg.seed, start, count, rank, cfg.measure)
        rhos, factors = _qubit_states_chunk(cfg.seed, start, count, rank)
        return (rhos, *qubit_records(rhos, factors, cfg.measure))
    params, values, flags = gaussian_records_chunk(
        cfg.seed, start, count, cfg.energy_window, cfg.measure
    )
    if not with_states:
        return values, flags
    return [gaussian.StandardFormCM(*row) for row in params.tolist()], values, flags


def sample_states(cfg: SamplerConfig):
    """Yield (state, EPERecord) pairs in index order: 4x4 density matrices
    for the qubit system, `gaussian.StandardFormCM`s for the gaussian one."""
    for start in range(0, cfg.count, CHUNK):
        states, values, flags = records_chunk(
            cfg, start, min(CHUNK, cfg.count - start), with_states=True
        )
        for state, (en, ent, pur), row in zip(states, values.tolist(), flags.tolist()):
            yield state, EPERecord(en, ent, pur, *row)


# --- conditioned samplers used by the extremality suites ---


def random_standard_form_at(E, P, rng) -> gaussian.StandardFormCM:
    """Random physical standard-form CM at exactly the given energy and purity.

    With a = E+1+d, b = E+1-d the product u = c+ c- is drawn uniformly
    between the real-solution bound 1/P - ab (where the PPT seralian
    attains its fixed-(E, P) maximum) and the physicality bound from
    nu_- >= 1, then (c+, c-) is recovered from the purity constraint.
    """
    E = float(E)
    P = float(P)
    if E <= 0.0 or not 1.0 / (E + 1.0) ** 2 <= P <= 1.0:
        raise DomainError("need E > 0 and purity in [1/(E+1)^2, 1]")
    inv_p2 = 1.0 / P**2
    d_cap = min(E, (1.0 / P - 1.0) / 2.0)
    for _ in range(500):
        d = rng.uniform(0.0, d_cap)
        a, b = E + 1.0 + d, E + 1.0 - d
        ab = a * b
        u_lo = 1.0 / P - ab
        u_hi = min((1.0 + inv_p2 - a * a - b * b) / 2.0, ab - 1.0 / P)
        if u_hi < u_lo:
            continue
        u = rng.uniform(u_lo, u_hi)
        s = (ab * ab + u * u - inv_p2) / ab
        disc = max(s * s - 4.0 * u * u, 0.0)
        t_hi = (s + np.sqrt(disc)) / 2.0
        t_lo = max((s - np.sqrt(disc)) / 2.0, 0.0)
        c_plus = np.sqrt(t_hi)
        c_minus = u / c_plus if c_plus > 0.0 else 0.0
        if rng.uniform() < 0.5:
            c_plus, c_minus = -c_plus, -c_minus
        sf = gaussian.StandardFormCM(a=a, b=b, c_plus=c_plus, c_minus=c_minus)
        if gaussian.is_physical(sf):
            return sf
    raise ConfigurationError(f"could not sample a CM at E={E}, P={P}")


# --- closed-form boundary tables ---

# (header, columns of the grid and the fixed energy) of each curve
_CURVES = {
    "qubit": {
        "separable": (["energy", "min_purity"],
                      lambda g, _: [qubit.separable_min_purity(g)]),
        "mems": (["concurrence", "purity", "energy_min", "energy_max"],
                 lambda g, _: [qubit.mems_purity(g), *qubit.mems_energy_range(g)]),
        "pure": (["energy", "max_concurrence"],
                 lambda g, _: [qubit.pure_circle_concurrence(g)]),
    },
    "gaussian": {
        "band": (["energy", "purity_low", "purity_high"],
                 lambda g, _: gaussian.separability_band(g)),
        "tmsv": (["energy", "log_negativity"],
                 lambda g, _: [gaussian.log_negativity(gaussian.two_mode_squeezed_vacuum(g))]),
        "gmems": (["purity", "log_negativity"],
                  lambda g, e: [gaussian.log_negativity(gaussian.gmems(e, g))]),
        "glems": (["purity", "log_negativity"],
                  lambda g, e: [gaussian.log_negativity(gaussian.glems(e, g))]),
    },
}
QUBIT_CURVES = tuple(_CURVES["qubit"])
GAUSSIAN_CURVES = tuple(_CURVES["gaussian"])
# the curves whose grid is purity at a fixed energy
ENERGY_CURVES = ("gmems", "glems")


def boundary_tables(system, grid, curve, energy=None):
    """Tabulate a closed-form boundary curve on a parameter grid.

    For qubits the grid is energy (curves "separable", "pure") or
    concurrence ("mems"); for Gaussian states it is energy ("band",
    "tmsv") or purity ("gmems", "glems" at a fixed `energy`), evaluated by
    one stacked `qubit` or `gaussian` call.  Returns (header, table), an
    (N, k) float array whose first column is the grid.  Grid points
    outside the curve's domain, or whose row is not finite in floating
    point, raise DomainError.
    """
    if curve not in _CURVES.get(system, {}):
        raise DomainError(f"unknown {system} curve {curve!r}")
    if curve in ENERGY_CURVES and energy is None:
        raise DomainError(f"curve {curve!r} needs a fixed energy")
    header, columns = _CURVES[system][curve]
    grid = np.asarray(grid, dtype=float).reshape(-1)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        table = np.column_stack([grid, *columns(grid, energy)])
    bad = ~np.isfinite(table).all(axis=1)
    if bad.any():
        raise DomainError(f"curve {curve!r} is not finite at grid point {float(grid[bad][0])!r}")
    return header, table
