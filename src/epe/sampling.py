"""Seeded Monte-Carlo sampling of two-qubit states and two-mode Gaussian CMs.

Determinism contract: every sample is a pure function of (seed, index).
All randomness comes from one counter-based Philox4x64 stream per system
(Salmon et al., SC'11, "Parallel random numbers: as easy as 1, 2, 3"),
named in STREAMS and stamped into every sample manifest.  Its 128-bit
key is the seed in the low 64 bits and a system tag in the high 64 bits.
The stream is cut into blocks of W uint64 words; attempt k of index i
owns block k * 2**40 + i, i.e. words [block * W, (block + 1) * W).  A
chunk of consecutive indices is therefore one contiguous `random_raw`
call per attempt, on a generator built from that key and counter (none
is kept between calls), and chunked or parallel generation emits
byte-identical records in index order no matter how the work is split.
Words become uniforms in [0, 1) as (word >> 11) * 2**-53, and each draw
reads fixed words of its block, so every offset is exact.

Two-qubit states (W = 32) follow the Hilbert-Schmidt measure of rank k
(the rank filter, default 4): rho = G G^dag / Tr(G G^dag) with G a 4 x k
standard complex normal matrix (Zyczkowski & Sommers, J. Phys. A 34,
7111 (2001)).  rho does not change under G -> G U for unitary U, so G is
replaced by the lower-trapezoidal L of G = L Q, normalized: A = L / ||L||_F
and rho = A A^dag.  By the Bartlett decomposition (Goodman, Ann. Math.
Statist. 34, 152 (1963)) the entries of L are independent, |L_jj|^2 is
Gamma(k - j) and each of the 4k - k(k + 1)/2 entries below the diagonal
is a standard complex normal, so the squared moduli of A are a Dirichlet
vector with those shapes, which sum to 4k, and each entry below the
diagonal has an independent uniform phase.  `_qubit_states_chunk` takes
the moduli as grouped spacings of the 4k - 1 sorted uniforms of words
[0, 4k - 1), exact as differences of multiples of 2**-53, and the phases
as 2 pi u of words 16, 17, ...: sort, subtraction, sqrt, cos and sin,
and no log, trace or division.  Gaussian states (W = 16) are BS^T (nu_-
M1 (+) nu_+ M2) BS, drawn as seven parameters of uniforms 0, 1, 3, 4, 6,
7 and 8 (`_drawn_parameters`) and accepted when their standard-form
energy lies in the energy window.

Records are computed a chunk at a time: `qubit_records` evaluates the
stacked `qubit` measures on the (N, 4, 4) stack of states (concurrence
from the drawn factors A; states whose det(rho^Gamma) shows them PPT get
C = 0 without the Jacobi kernel, with the kernel's bits), and
`_gaussian_records` closed forms in the accepted candidates' parameters,
with no covariance matrix.  Both return (N, 3) values and (N, 3)
containment flags.  `records_chunk` gives a run's records, the one
sampling path, with no state kept.  `candidate_covariances` builds the
candidates' matrices; `random_covariance` draws a stream seed from a
numpy Generator and returns the matrix of the candidate index 0 accepts
at that seed.
"""

from __future__ import annotations

import operator

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

# the stream each system's records are drawn from; a new name for each change of bytes
STREAMS = {"qubit": "philox-v3", "gaussian": "philox-v1"}
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


class SamplerConfig:
    """Configuration of one sampling run.

    `seed`, `count` and a `rank_filter` must be integers (anything
    `operator.index` takes, stored as int).  `rank_filter` applies to the
    qubit system only and `energy_window`, two real numbers (lo, hi), to the
    gaussian system only; a window of None means DEFAULT_ENERGY_WINDOW there.
    The measure defaults to concurrence for qubits and logneg for modes.
    """

    def __init__(self, seed, count, system="qubit", rank_filter=None, energy_window=None,
                 measure=None):
        def integer(name, value):
            try:
                return operator.index(value)
            except TypeError:
                raise ConfigurationError(f"{name} must be an integer, got {value!r}") from None

        seed, count = integer("seed", seed), integer("count", count)
        if rank_filter is not None:
            rank_filter = integer("rank_filter", rank_filter)
        if count < 1:
            raise ConfigurationError("count must be a positive integer")
        _check_stream_range(seed, count)
        if system not in ("qubit", "gaussian"):
            raise ConfigurationError(f"unknown system {system!r}")
        if rank_filter is not None:
            if system != "qubit":
                raise ConfigurationError("the rank filter applies to system qubit only")
            if rank_filter not in (1, 2, 3, 4):
                raise ConfigurationError("rank filter must be in 1..4")
        if energy_window is None:
            if system == "gaussian":
                energy_window = DEFAULT_ENERGY_WINDOW
        elif system == "qubit":
            raise ConfigurationError("the energy window applies to system gaussian only")
        else:
            try:
                lo, hi = energy_window
                in_range = 0.0 <= lo < hi < np.inf
            except (TypeError, ValueError):
                raise ConfigurationError("energy window must be two real numbers (lo, hi)") from None
            if not in_range:
                raise ConfigurationError("energy window must satisfy 0 <= lo < hi < inf")
        measure = measure or ("concurrence" if system == "qubit" else "logneg")
        allowed = QUBIT_MEASURES if system == "qubit" else GAUSSIAN_MEASURES
        if measure not in allowed:
            raise ConfigurationError(f"measure {measure!r} not valid for {system}")
        self.seed, self.count, self.system = seed, count, system
        self.rank_filter, self.energy_window, self.measure = rank_filter, energy_window, measure

    def __repr__(self):
        return (f"SamplerConfig(seed={self.seed!r}, count={self.count!r}, system={self.system!r}, "
                f"rank_filter={self.rank_filter!r}, energy_window={self.energy_window!r}, "
                f"measure={self.measure!r})")


# the "110"-style label of each containment-flag triple, indexed by flags @ (4, 2, 1)
_FLAG_LABELS = np.array([format(i, "03b") for i in range(8)], dtype="S3")
_FLAG_WEIGHTS = np.array([4, 2, 1])


def flag_labels(flags):
    """Labels such as b"110" of a (..., 3) boolean array of containment flags.

    The flags hold for every valid record, vacuously where they do not
    apply: a pure record lies on the pure-state boundary (the (E-1)^2 + C^2
    <= 1 disc for qubits, the squeezed-vacuum curve for modes); the
    entanglement is below the maximal-entanglement frontier; and separable
    qubit records have P >= P_min(E), entangled Gaussian ones P > 1/(2E+1).
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


# --- two-qubit sampling ---


def _qubit_states_chunk(seed, start, count, rank):
    """(rhos, factors): the (count, 4, rank) normalized lower-trapezoidal
    factors A of indices [start, start + count) and their states rho = A A^dag.

    The squared moduli of A, diagonal entries first and then the entries
    below the diagonal row by row, are the spacings of 0, the sorted
    uniforms of words [0, 4 rank - 1) and 1, in groups of rank, rank - 1,
    ..., 1 and then ones.  Entry e below the diagonal has the phase
    2 pi u of word 16 + e.
    """
    k = rank
    words = stream_words(seed, "qubit", start, count, QUBIT_WORDS)
    points = np.empty((count, 4 * k + 1))
    points[:, 0], points[:, -1] = 0.0, 1.0
    points[:, 1:-1] = uniforms(np.sort(words[:, :4 * k - 1], axis=1))
    diagonal_ends = np.cumsum(np.arange(k, 0, -1))
    moduli = np.sqrt(np.diff(points[:, [0, *diagonal_ends]], axis=1))
    below = [i * k + j for i in range(1, 4) for j in range(min(i, k))]
    radii = np.sqrt(np.diff(points[:, diagonal_ends[-1]:], axis=1))
    theta = 2.0 * np.pi * uniforms(words[:, 16:16 + len(below)])
    A = np.zeros((count, 4 * k), dtype=complex)
    A.real[:, np.arange(k) * (k + 1)] = moduli
    A.real[:, below] = radii * np.cos(theta)
    A.imag[:, below] = radii * np.sin(theta)
    A = A.reshape(count, 4, k)
    # einsum, not a batched BLAS product, so the bytes do not depend on the BLAS kernel
    return np.einsum("naj,nbj->nab", A, A.conj()), A


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


def _inverse_square(u, lo, hi):
    # density ~ 1/nu^2 on [lo, hi]: 1/nu uniform on [1/hi, 1/lo], with no cancellation
    return 1.0 / ((1.0 - u) / lo + u / hi)


# symplectic eigenvalues are capped so sampled purities stay above ~1e-3
_NU_PRODUCT_CAP = 1.0e3


def _drawn_parameters(u, e_hi):
    """(nu_-, nu_+, r_max, x1, t1, x2, t2, t, nonempty) of the candidates of
    (N, 16) uniforms for a window with upper energy e_hi: nu_- on [1, nu_hi]
    and nu_+ on [nu_-, top] (nonempty if top > nu_-) with density ~ 1/nu^2,
    mode i squeezed by r_max x_i at angle 2 pi t_i, and the beam-splitter
    angle theta = 2 pi t.  In these units x1 -+ x2 and t1 - t2 are exact."""
    nu_hi = min(2.0 * (e_hi + 1.0) - 1.0, _NU_PRODUCT_CAP)
    nu_m = _inverse_square(u[:, 0], 1.0, nu_hi)
    top = np.minimum(2.0 * (e_hi + 1.0) - nu_m, _NU_PRODUCT_CAP / nu_m)
    nu_p = _inverse_square(u[:, 1], nu_m, top)
    r_max = 0.5 * np.arccosh(e_hi + 1.0)
    x1, x2 = 2.0 * u[:, 3] - 1.0, 2.0 * u[:, 6] - 1.0
    return nu_m, nu_p, r_max, x1, u[:, 4], x2, u[:, 7], u[:, 8], top > nu_m


def _cos_sin_squared(t):
    """(cos^2 2 pi t, sin^2 2 pi t) to a few ulp of each, also near zeros:
    t = k/4 + f exactly (t a multiple of 2**-53, |f| <= 1/8), and they are
    cos^2 and sin^2 of 2 pi f, swapped for odd k."""
    k = np.rint(4.0 * t)
    f = 2.0 * np.pi * (t - 0.25 * k)
    c2, s2 = np.cos(f) ** 2, np.sin(f) ** 2
    odd = k % 2.0 == 1.0
    return np.where(odd, s2, c2), np.where(odd, c2, s2)


def _candidate_energy(params):
    """(E, tau - 2) of the candidates sigma = BS^T (nu_- M1 (+) nu_+ M2) BS
    of `_drawn_parameters`, M_i = Rot(phi_i)^T diag(e^2r_i, e^-2r_i) Rot(phi_i).

    E = (sqrt(Det alpha) + sqrt(Det beta))/2 - 1 with Det alpha = c^4 nu_-^2
    + s^4 nu_+^2 + c^2 s^2 nu_- nu_+ tau, Det beta the same with c and s of
    theta swapped, and tau = Tr(M1 adj M2).  tau - 2 = 4 sinh^2(r1 -+ r2) +
    4 |sh| sin^2 (cos^2)(phi1 - phi2) where sh = sinh 2r1 sinh 2r2 >= 0
    (< 0): every one a sum of non-negative terms.
    """
    nu_m, nu_p, r_max, x1, t1, x2, t2, t, _ = params
    sh = np.sinh(2.0 * r_max * x1) * np.sinh(2.0 * r_max * x2)
    same = sh >= 0.0
    cos2, sin2 = _cos_sin_squared(t1 - t2)
    tau_2 = 4.0 * (np.sinh(r_max * np.where(same, x1 - x2, x1 + x2)) ** 2
                   + np.abs(sh) * np.where(same, sin2, cos2))
    cc, ss = _cos_sin_squared(t)
    mixed = cc * ss * nu_m * nu_p * (tau_2 + 2.0)
    det_alpha = cc * cc * nu_m * nu_m + ss * ss * nu_p * nu_p + mixed
    det_beta = ss * ss * nu_m * nu_m + cc * cc * nu_p * nu_p + mixed
    return (np.sqrt(det_alpha) + np.sqrt(det_beta)) / 2.0 - 1.0, tau_2


def _accepted(u, energy_window):
    """Which candidates of (N, 16) uniforms have a nonempty range and E in the window."""
    e_lo, e_hi = energy_window
    params = _drawn_parameters(u, e_hi)
    energy, _ = _candidate_energy(params)
    return params[-1] & (e_lo <= energy) & (energy <= e_hi)


def candidate_covariances(u, energy_window):
    """The (N, 4, 4) candidate matrices of (N, 16) uniforms of
    `_candidate_energy`, elementwise and exactly symmetric, accepted or not.
    This is S^T diag(nu-, nu-, nu+, nu+) S with S = L BS R less what
    cancels: each mode's L_i = Rot D Rot' gives L_i^T nu L_i =
    nu Rot'^T D^2 Rot', and the local symplectic R changes no record."""
    nu_m, nu_p, r_max, x1, t1, x2, t2, t, _ = _drawn_parameters(u, energy_window[1])
    blocks = []
    for nu, x, t_i in ((nu_m, x1, t1), (nu_p, x2, t2)):
        e, f = np.exp(2.0 * r_max * x), np.exp(-2.0 * r_max * x)
        c, s = np.cos(2.0 * np.pi * t_i), np.sin(2.0 * np.pi * t_i)
        blocks.append([nu * m for m in (e * c * c + f * s * s, c * s * (e - f),
                                        e * s * s + f * c * c)])
    A, B = blocks
    c, s = np.cos(2.0 * np.pi * t), np.sin(2.0 * np.pi * t)
    cc, ss, cs = c * c, s * s, c * s
    a11, a12, a22 = (cc * x + ss * y for x, y in zip(A, B))
    b11, b12, b22 = (ss * x + cc * y for x, y in zip(A, B))
    g11, g12, g22 = (cs * (x - y) for x, y in zip(A, B))
    return np.stack([a11, a12, g11, g12,
                     a12, a22, g12, g22,
                     g11, g12, b11, b12,
                     g12, g22, b12, b22], -1).reshape(-1, 4, 4)


def _accepted_candidates(seed, start, count, energy_window):
    """The (count, 16) uniforms of the candidate each index in
    [start, start + count) accepts.

    Rejection runs in rounds: round k draws attempt k of every index still
    pending, so each index keeps its first accepted attempt (at most
    MAX_ATTEMPTS of them).
    """
    accepted = np.empty((count, GAUSSIAN_WORDS))
    pending = np.arange(count)
    for attempt in range(MAX_ATTEMPTS):
        if not pending.size:
            break
        first = int(pending[0])
        words = stream_words(
            seed, "gaussian", start + first, int(pending[-1]) + 1 - first, GAUSSIAN_WORDS, attempt
        )
        u = uniforms(words[pending - first])
        ok = _accepted(u, energy_window)
        accepted[pending[ok]] = u[ok]
        pending = pending[~ok]
    if pending.size:
        raise ConfigurationError(
            f"rejection rate above {100 * (1 - 1 / MAX_ATTEMPTS):.1f}% for window {energy_window}; "
            "widen the energy window"
        )
    return accepted


def random_covariance(rng):
    """One random physical covariance matrix inside DEFAULT_ENERGY_WINDOW: the
    matrix of the candidate index 0 of the gaussian stream accepts, at a
    seed drawn from `rng`."""
    seed = int(rng.integers(1 << 64, dtype=np.uint64))
    u = _accepted_candidates(seed, 0, 1, DEFAULT_ENERGY_WINDOW)
    return candidate_covariances(u, DEFAULT_ENERGY_WINDOW)[0]


def _gaussian_flags(en, logneg, pur):
    """(N, 3) containment flags of records (E, E_N, P) by stacked `gaussian`
    calls: E_N against `two_mode_squeezed_vacuum(E)` (pure records) and
    `gmems(E, P)`, and P above 1/(2E + 1) for entangled records."""
    # clamp into the families' domains; roundoff can sit a hair below the
    # energy floor 0 or the purity floor 1/(E+1)^2
    e_ref = np.maximum(en, 0.0)
    p_ref = np.clip(pur, 1.0 / (e_ref + 1.0) ** 2, 1.0)
    bound = np.zeros_like(en)
    hot = en > 0.0  # the GMEMS family starts above the vacuum
    # from E ~ 1e8 up the family rows round (Det sigma to 0, products past
    # the float range) to inf or nan bounds; numpy's warnings about them
    # would print ahead of the run's one error line
    with np.errstate(all="ignore"):
        tmsv = gaussian.log_negativity(gaussian.two_mode_squeezed_vacuum(e_ref), check=False)
        bound[hot] = gaussian.log_negativity(gaussian.gmems(en[hot], p_ref[hot]), check=False)
        _, band_top = gaussian.separability_band(e_ref)
    on_curve = (pur < 1.0 - PURE_TOL) | (np.abs(logneg - tmsv) <= 1e-6)
    below = logneg <= bound + FLAG_TOL
    in_band = (logneg <= 0.0) | (pur > band_top - FLAG_TOL)
    return np.column_stack([on_curve, below, in_band])


def _gaussian_records(u, energy_window, measure="logneg"):
    """(values, flags) like `qubit_records` of accepted candidates of (N, 16)
    uniforms, with no covariance matrix (Serafini, Illuminati & De Siena,
    J. Phys. B 37, L21 (2004)): E, bit for bit the energy accepted on,
    P = 1/(nu_- nu_+), and E_N from Det sigma = (nu_- nu_+)^2 and Delta~ =
    cos^2 2theta (nu_-^2 + nu_+^2) + sin^2 2theta nu_- nu_+ tau, whose
    Delta~ - 2 nu_- nu_+ = cos^2 2theta (nu_+ - nu_-)^2 + sin^2 2theta
    nu_- nu_+ (tau - 2) is a sum of non-negative terms."""
    params = _drawn_parameters(u, energy_window[1])
    nu_m, nu_p, *_, t, _ = params
    en, tau_2 = _candidate_energy(params)
    nn = nu_m * nu_p
    pur = 1.0 / nn
    cos2, sin2 = _cos_sin_squared(2.0 * t)
    ppt_delta = cos2 * (nu_m * nu_m + nu_p * nu_p) + sin2 * nn * (tau_2 + 2.0)
    gap = cos2 * (nu_p - nu_m) ** 2 + sin2 * nn * tau_2
    nu = gaussian.ppt_nu_minus_from(ppt_delta, nn * nn,
                                    np.sqrt(gap) * np.sqrt(ppt_delta + 2.0 * nn))
    logneg = gaussian.log_negativity_from(nu)
    if measure == "logneg":
        ent = logneg
    elif measure == "negativity":
        ent = gaussian.negativity_from(nu)
    else:
        raise ConfigurationError(f"measure {measure!r} not valid for gaussian sampling")
    return np.column_stack([en, ent, pur]), _gaussian_flags(en, logneg, pur)


def gaussian_records_chunk(seed, start, count, energy_window=DEFAULT_ENERGY_WINDOW,
                           measure="logneg"):
    """(values, flags) of `_gaussian_records` for indices [start, start + count)."""
    return _gaussian_records(_accepted_candidates(seed, start, count, energy_window),
                             energy_window, measure)


# --- one sampling path for both systems ---


def records_chunk(cfg: SamplerConfig, start, count):
    """(values, flags) of the indices [start, start + count) of the run `cfg`."""
    if cfg.system == "qubit":
        return qubit_records_chunk(cfg.seed, start, count, cfg.rank_filter or 4, cfg.measure)
    return gaussian_records_chunk(cfg.seed, start, count, cfg.energy_window, cfg.measure)


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
