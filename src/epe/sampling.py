"""Seeded Monte-Carlo sampling of two-qubit states and two-mode Gaussian CMs.

Determinism contract: every sample is a pure function of (seed, index).
All randomness comes from one counter-based Philox4x64 stream per system
(Salmon et al., SC'11, "Parallel random numbers: as easy as 1, 2, 3"),
named STREAM and stamped into every sample manifest.  Its 128-bit key
is the seed in the low 64 bits and a system tag in the high 64 bits.
The stream is cut into blocks of W uint64 words; attempt k of index i
owns block k * 2**40 + i, i.e. words [block * W, (block + 1) * W).  A
chunk of consecutive indices is therefore one contiguous `random_raw`
call per attempt, and chunked or parallel generation emits byte-identical
records in index order no matter how the work is split.  Words become
uniforms in [0, 1) as (word >> 11) * 2**-53 and normals by Box-Muller,
which consumes a fixed number of words, so every offset is exact.

Two-qubit states (W = 32) are drawn from the Ginibre construction
rho = G G^dag / Tr(G G^dag) with G a 4 x k standard complex normal
matrix (k = rank filter, default 4: the first k columns of a 4 x 4
draw), i.e. the Hilbert-Schmidt measure at full rank.  Gaussian states
(W = 16, 15 uniforms used) are built as S^T diag(nu-, nu-, nu+, nu+) S
from random local squeezes, local rotations and a beam-splitter mix,
accepted when their standard-form energy lies in the energy window.

Records are computed a chunk at a time: `qubit_records` takes the
(N, 4, 4) stack of states, and each Gaussian chunk is reduced to
standard form in one stacked `gaussian.reduce_to_standard_form` call
whose (N, 4) rows `gaussian_records` turns into energy, entanglement and
purity columns by closed-form block invariants.  Both return an (N, 3)
value array and an (N, 3) array of containment flags.
"""

from __future__ import annotations

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

    `rank_filter` applies to the qubit system only and `energy_window`
    to the gaussian system only; a window of None means
    DEFAULT_ENERGY_WINDOW there.
    """

    seed: int
    count: int
    system: str = "qubit"
    rank_filter: int | None = None
    energy_window: tuple | None = None
    measure: str | None = None

    def __post_init__(self):
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
            lo, hi = self.energy_window
            if not 0.0 <= lo < hi < np.inf:
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
        return "".join(
            "1" if ok else "0"
            for ok in (self.on_pure_circle, self.below_mems, self.in_separable_band)
        )


def _epe_records(values, flags):
    """EPERecords from the (N, 3) value and flag arrays of a chunk."""
    for (en, ent, pur), (on_circle, below, in_band) in zip(values.tolist(), flags.tolist()):
        yield EPERecord(en, ent, pur, on_circle, below, in_band)


# --- the Philox stream ---


def stream_words(seed, system, start, count, width, attempt=0) -> np.ndarray:
    """(count, width) uint64 words of attempt `attempt` for indices [start, start + count)."""
    _check_stream_range(seed, start + count)
    block = attempt * INDEX_LIMIT + start
    # Philox steps its counter before each 4-word output, so block b
    # occupies counters b * width / 4 + 1 .. (b + 1) * width / 4
    bits = np.random.Philox(key=int(seed) | _SYSTEM_TAG[system] << 64, counter=block * width // 4)
    return bits.random_raw(count * width).reshape(count, width)


def uniforms(words) -> np.ndarray:
    """Uniforms in [0, 1) with 53 random bits, the same map numpy's Generator.random uses."""
    return (words >> np.uint64(11)) * 2.0**-53


def box_muller(u) -> np.ndarray:
    """As many standard normals as uniforms along the (even) last axis.

    The first half of the uniforms sets the radii, the second half the
    angles; normal j is r_j cos(theta_j), normal m + j is r_j sin(theta_j).
    """
    m = u.shape[-1] // 2
    r = np.sqrt(-2.0 * np.log1p(-u[..., :m]))
    theta = 2.0 * np.pi * u[..., m:]
    return np.concatenate([r * np.cos(theta), r * np.sin(theta)], axis=-1)


# --- two-qubit sampling ---


def qubit_normals(seed, start, count) -> np.ndarray:
    """The 32 standard normals of each index in [start, start + count)."""
    return box_muller(uniforms(stream_words(seed, "qubit", start, count, QUBIT_WORDS)))


def _qubit_states_chunk(seed, start, count, rank):
    z = qubit_normals(seed, start, count)
    G = (z[:, :16] + 1j * z[:, 16:]).reshape(count, 4, 4)[:, :, :rank]
    M = G @ G.conj().transpose(0, 2, 1)
    return M / np.trace(M, axis1=1, axis2=2).real[:, None, None]


def batch_negativity(rhos) -> np.ndarray:
    pt = rhos.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 4, 3, 2).reshape(-1, 4, 4)
    trace_norm = np.abs(np.linalg.eigvalsh(pt)).sum(axis=-1)
    return np.clip((trace_norm - 1.0) / 2.0, 0.0, None)


def qubit_records(rhos, measure="concurrence"):
    """Vectorized records for an (N, 4, 4) stack of states.

    Returns (values, flags): an (N, 3) float array of energy,
    entanglement and purity columns and an (N, 3) boolean flag array.
    """
    conc = qubit.concurrence(rhos, check=False)
    pur = np.clip(np.einsum("bij,bji->b", rhos, rhos).real, 0.0, 1.0)
    en = np.einsum("bii,i->b", rhos, np.diag(qubit.EXCITATION_NUMBER).astype(complex)).real

    if measure == "concurrence":
        ent = conc
    elif measure == "eof":
        ent = qubit.eof_from_concurrence(conc)
    elif measure == "negativity":
        ent = batch_negativity(rhos)
    elif measure == "logneg":
        ent = np.log2(1.0 + 2.0 * batch_negativity(rhos))
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
    return qubit_records(_qubit_states_chunk(seed, start, count, rank), measure)


def sample_qubit_states(cfg: SamplerConfig):
    """Yield (rho, EPERecord) pairs in index order."""
    if cfg.system != "qubit":
        raise ConfigurationError("config is not for the qubit system")
    rank = cfg.rank_filter or 4
    for start in range(0, cfg.count, CHUNK):
        rhos = _qubit_states_chunk(cfg.seed, start, min(CHUNK, cfg.count - start), rank)
        yield from zip(rhos, _epe_records(*qubit_records(rhos, cfg.measure)))


# --- two-mode Gaussian sampling ---


def _rotations(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.stack([np.stack([c, s], -1), np.stack([-s, c], -1)], -2)


def _mode_symplectics(u, r_max):
    """(N, 2, 2) rotation-squeeze-rotation Euler samples of one mode's symplectic
    group from (N, 3) uniforms: angle, squeeze in [-r_max, r_max), angle."""
    r = r_max * (2.0 * u[:, 1] - 1.0)
    squeeze = np.stack([np.exp(r), np.exp(-r)], -1)
    return (_rotations(2.0 * np.pi * u[:, 0]) * squeeze[:, None, :]) @ _rotations(
        2.0 * np.pi * u[:, 2]
    )


def _local(S1, S2):
    out = np.zeros(S1.shape[:-2] + (4, 4))
    out[..., :2, :2] = S1
    out[..., 2:, 2:] = S2
    return out


def beam_splitter(theta) -> np.ndarray:
    """Passive mixing symplectic that rotates the two modes into each other.

    Takes a scalar or an array of angles; the 4 x 4 axes come last.
    """
    return np.kron(_rotations(theta), np.eye(2))


def _inverse_square(u, lo, hi):
    # density proportional to 1/nu^2 on [lo, hi]
    return 1.0 / (1.0 / lo - u * (1.0 / lo - 1.0 / hi))


def _det2(block):
    return block[:, 0, 0] * block[:, 1, 1] - block[:, 0, 1] * block[:, 1, 0]


# symplectic eigenvalues are capped so sampled purities stay above ~1e-3
_NU_PRODUCT_CAP = 1.0e3


def candidate_covariances(u, energy_window=DEFAULT_ENERGY_WINDOW):
    """Candidate covariance matrices from (N, 16) uniforms, and which are accepted.

    Uniform 0 draws nu_- and uniform 1 nu_+, each with density ~ 1/nu^2
    (favoring nearly pure spectra) within ranges compatible with the
    window; uniforms 2-7 draw the two local symplectics on the left of a
    beam splitter at angle 2 pi u_8, uniforms 9-14 the two on its right,
    and uniform 15 is unused.  A candidate is accepted when its spectrum
    range is nonempty and its standard-form energy
    (sqrt(Det alpha) + sqrt(Det beta))/2 - 1, the energy its record
    reports, lies inside the window.  Returns ((N, 4, 4) CMs, (N,) bools).
    """
    e_lo, e_hi = energy_window
    nu_hi = min(2.0 * (e_hi + 1.0) - 1.0, _NU_PRODUCT_CAP)
    r_max = 0.5 * np.arccosh(e_hi + 1.0)
    nu_m = _inverse_square(u[:, 0], 1.0, nu_hi)
    top = np.minimum(2.0 * (e_hi + 1.0) - nu_m, _NU_PRODUCT_CAP / nu_m)
    nu_p = _inverse_square(u[:, 1], nu_m, top)
    S = (
        _local(_mode_symplectics(u[:, 2:5], r_max), _mode_symplectics(u[:, 5:8], r_max))
        @ beam_splitter(2.0 * np.pi * u[:, 8])
        @ _local(_mode_symplectics(u[:, 9:12], r_max), _mode_symplectics(u[:, 12:15], r_max))
    )
    nu = np.stack([nu_m, nu_m, nu_p, nu_p], -1)
    sigma = S.transpose(0, 2, 1) @ (nu[:, :, None] * S)
    energy = (np.sqrt(_det2(sigma[:, :2, :2])) + np.sqrt(_det2(sigma[:, 2:, 2:]))) / 2.0 - 1.0
    return sigma, (top > nu_m) & (e_lo <= energy) & (energy <= e_hi)


def _window_error(energy_window, max_attempts):
    return ConfigurationError(
        f"rejection rate above {100 * (1 - 1 / max_attempts):.1f}% for window {energy_window}; "
        "widen the energy window"
    )


def random_covariance(rng, energy_window=DEFAULT_ENERGY_WINDOW, max_attempts=MAX_ATTEMPTS):
    """One random physical covariance matrix inside the energy window.

    Draws 16 uniforms from `rng` per attempt and rejects candidates of
    `candidate_covariances` until one is accepted.
    """
    for _ in range(max_attempts):
        sigma, ok = candidate_covariances(rng.random((1, GAUSSIAN_WORDS)), energy_window)
        if ok[0]:
            return sigma[0]
    raise _window_error(energy_window, max_attempts)


def gaussian_covariances_chunk(seed, start, count, energy_window=DEFAULT_ENERGY_WINDOW):
    """(count, 4, 4) accepted CMs for indices [start, start + count).

    Rejection runs in rounds: round k draws attempt k of every index still
    pending, so each index keeps its first accepted attempt (at most
    MAX_ATTEMPTS of them).
    """
    sigmas = np.empty((count, 4, 4))
    pending = np.arange(count)
    for attempt in range(MAX_ATTEMPTS):
        if not pending.size:
            break
        first = int(pending[0])
        words = stream_words(
            seed, "gaussian", start + first, int(pending[-1]) + 1 - first, GAUSSIAN_WORDS, attempt
        )
        sigma, ok = candidate_covariances(uniforms(words[pending - first]), energy_window)
        sigmas[pending[ok]] = sigma[ok]
        pending = pending[~ok]
    if pending.size:
        raise _window_error(energy_window, MAX_ATTEMPTS)
    return sigmas


def gaussian_records(params, measure="logneg"):
    """Vectorized records for an (N, 4) array of standard forms (a, b, c+, c-).

    Returns (values, flags) like `qubit_records`.  Each column is the
    closed form of a scalar `gaussian` measure: energy (a + b)/2 - 1,
    purity 1/sqrt(Det sigma), and the entanglement from the PPT
    symplectic eigenvalue nu~_- of (a^2 + b^2 - 2 c+ c-, Det sigma).
    The flags compare the log-negativity with the squeezed-vacuum value
    arccosh(E + 1) for pure rows, with the GMEMS bound
    -ln(A - sqrt(A^2 - 1/P)), A = E + 1, at the row's energy and purity,
    and require P > 1/(2E + 1) for entangled rows.
    """
    a, b, c_plus, c_minus = params.T
    ab = a * b
    det = (ab - c_plus**2) * (ab - c_minus**2)
    en = (a + b) / 2.0 - 1.0
    pur = np.minimum(1.0 / np.sqrt(det), 1.0)
    nu, _ = gaussian.nu_from_invariants(a**2 + b**2 - 2.0 * c_plus * c_minus, det)
    logneg = np.maximum(0.0, -np.log(nu))
    if measure == "logneg":
        ent = logneg
    elif measure == "negativity":
        ent = np.maximum(0.0, (1.0 - nu) / (2.0 * nu))
    else:
        raise ConfigurationError(f"measure {measure!r} not valid for gaussian sampling")

    A = en + 1.0
    on_curve = (pur < 1.0 - PURE_TOL) | (np.abs(logneg - np.arccosh(np.maximum(A, 1.0))) <= 1e-6)
    # clamp into the GMEMS domain; reduction roundoff can sit a hair
    # below the purity floor 1/(E+1)^2
    p_ref = np.clip(pur, 1.0 / A**2, 1.0)
    gmems = np.maximum(0.0, -np.log(A - np.sqrt(np.maximum(A**2 - 1.0 / p_ref, 0.0))))
    bound = np.where(en > 0.0, gmems, 0.0)
    below = logneg <= bound + FLAG_TOL
    in_band = (logneg <= 0.0) | (pur > 1.0 / (2.0 * en + 1.0) - FLAG_TOL)

    values = np.column_stack([en, ent, pur])
    flags = np.column_stack([on_curve, below, in_band])
    return values, flags


def gaussian_records_chunk(seed, start, count, energy_window=DEFAULT_ENERGY_WINDOW,
                           measure="logneg"):
    """(params, values, flags) for indices [start, start + count).

    `params` is the (count, 4) array of standard forms (a, b, c+, c-),
    reduced in one stacked call; values and flags are their `gaussian_records`.
    """
    params = gaussian.reduce_to_standard_form(
        gaussian_covariances_chunk(seed, start, count, energy_window)
    )
    return (params, *gaussian_records(params, measure))


def sample_gaussian_states(cfg: SamplerConfig):
    """Yield (StandardFormCM, EPERecord) pairs in index order."""
    if cfg.system != "gaussian":
        raise ConfigurationError("config is not for the gaussian system")
    for start in range(0, cfg.count, CHUNK):
        n = min(CHUNK, cfg.count - start)
        params, values, flags = gaussian_records_chunk(
            cfg.seed, start, n, cfg.energy_window, cfg.measure
        )
        sfs = (gaussian.StandardFormCM(*row) for row in params.tolist())
        yield from zip(sfs, _epe_records(values, flags))


# --- conditioned samplers used by the extremality suites ---


def random_state_with_purity(P, rng, max_attempts=10_000) -> np.ndarray:
    """Random state at exactly the requested purity.

    A random Dirichlet spectrum is stretched away from the maximally
    mixed point until Tr rho^2 hits P, then conjugated by a Haar random
    unitary.  Draws that cannot reach P while staying positive are
    rejected; spikier Dirichlet weights are used for high purities.
    """
    P = float(P)
    if not 0.25 <= P <= 1.0:
        raise DomainError("two-qubit purity must lie in [1/4, 1]")
    alpha = 0.35 if P > 0.6 else 1.0
    center = np.full(4, 0.25)
    for _ in range(max_attempts):
        q = rng.dirichlet(np.full(4, alpha))
        span = ((q - center) ** 2).sum()
        if span <= 0.0:
            continue
        s = np.sqrt((P - 0.25) / span)
        lam = center + s * (q - center)
        if lam.min() < 0.0:
            continue
        G = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        Q, _ = np.linalg.qr(G)
        return (Q * lam) @ Q.conj().T
    raise ConfigurationError(f"could not reach purity {P}")


def random_standard_form_at(E, P, rng, max_attempts=500) -> gaussian.StandardFormCM:
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
    for _ in range(max_attempts):
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

QUBIT_CURVES = ("separable", "mems", "pure")
GAUSSIAN_CURVES = ("band", "tmsv", "gmems", "glems")


def boundary_tables(system, grid, curve=None, energy=None):
    """Tabulate closed-form boundary curves on a parameter grid.

    For qubits the grid is energy (curves "separable", "pure") or
    concurrence ("mems"); for Gaussian states it is energy ("band",
    "tmsv") or purity ("gmems", "glems" at a fixed `energy`).  Returns
    (header, rows) for a single curve, or a dict over every curve of
    the system when `curve` is None.  Grid points outside a curve's
    domain raise DomainError.
    """
    grid = [float(g) for g in np.atleast_1d(np.asarray(grid, dtype=float))]
    if curve is None:
        curves = QUBIT_CURVES if system == "qubit" else GAUSSIAN_CURVES
        return {c: boundary_tables(system, grid, c, energy) for c in curves}

    if system == "qubit":
        if curve == "separable":
            return ["energy", "min_purity"], [(g, qubit.separable_min_purity(g)) for g in grid]
        if curve == "mems":
            return (
                ["concurrence", "purity", "energy_min", "energy_max"],
                [(g, qubit.mems_purity(g), *qubit.mems_energy_range(g)) for g in grid],
            )
        if curve == "pure":
            return ["energy", "max_concurrence"], [
                (g, qubit.pure_circle_concurrence(g)) for g in grid
            ]
        raise DomainError(f"unknown qubit curve {curve!r}")

    if system == "gaussian":
        if curve == "band":
            return ["energy", "purity_low", "purity_high"], [
                (g, *gaussian.separability_band(g)) for g in grid
            ]
        if curve == "tmsv":
            return ["energy", "log_negativity"], [
                (g, gaussian.log_negativity(gaussian.two_mode_squeezed_vacuum(g))) for g in grid
            ]
        if curve in ("gmems", "glems"):
            if energy is None:
                raise DomainError(f"curve {curve!r} needs a fixed energy")
            family = gaussian.gmems if curve == "gmems" else gaussian.glems
            return ["purity", "log_negativity"], [
                (g, gaussian.log_negativity(family(energy, g))) for g in grid
            ]
        raise DomainError(f"unknown gaussian curve {curve!r}")

    raise DomainError(f"unknown system {system!r}")
