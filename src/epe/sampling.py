"""Seeded Monte-Carlo sampling of two-qubit states and two-mode Gaussian CMs.

Determinism contract: every sample is a pure function of (seed, index).
Each index owns an independent RNG stream derived through
numpy.random.SeedSequence(seed, spawn_key=(index,)), so chunked or
parallel generation emits byte-identical records in index order no
matter how the work is split.

Two-qubit states are drawn from the Ginibre construction
rho = G G^dag / Tr(G G^dag) with G a 4 x k standard complex normal
matrix (k = rank filter, default 4), i.e. the Hilbert-Schmidt measure
at full rank.  Gaussian states are built as S^T diag(nu-, nu-, nu+, nu+) S
from random local squeezes, local rotations and a beam-splitter mix,
then reduced to standard form and filtered to an energy window.
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


@dataclass(frozen=True)
class SamplerConfig:
    """Configuration of one sampling run."""

    seed: int
    count: int
    system: str = "qubit"
    rank_filter: int | None = None
    energy_window: tuple = (0.0, 2.0)
    measure: str | None = None

    def __post_init__(self):
        if self.count < 1:
            raise ConfigurationError("count must be a positive integer")
        if self.system not in ("qubit", "gaussian"):
            raise ConfigurationError(f"unknown system {self.system!r}")
        if self.rank_filter is not None and self.rank_filter not in (1, 2, 3, 4):
            raise ConfigurationError("rank filter must be in 1..4")
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


def index_rng(seed, index) -> np.random.Generator:
    """Independent generator for one sample index."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


# --- two-qubit sampling ---


def ginibre_state(rng, rank=4) -> np.ndarray:
    """One Hilbert-Schmidt random state of the given rank."""
    G = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
    M = G @ G.conj().T
    return M / np.trace(M).real


def _qubit_states_chunk(seed, start, count, rank):
    rhos = np.empty((count, 4, 4), dtype=complex)
    for i in range(count):
        rhos[i] = ginibre_state(index_rng(seed, start + i), rank)
    return rhos


def batch_negativity(rhos) -> np.ndarray:
    pt = rhos.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 4, 3, 2).reshape(-1, 4, 4)
    trace_norm = np.abs(np.linalg.eigvalsh(pt)).sum(axis=-1)
    return np.clip((trace_norm - 1.0) / 2.0, 0.0, None)


def qubit_records_chunk(seed, start, count, rank=4, measure="concurrence"):
    """Vectorized records for indices [start, start + count).

    Returns (values, flags): a (count, 3) float array of energy,
    entanglement and purity columns and a (count, 3) boolean flag array.
    """
    rhos = _qubit_states_chunk(seed, start, count, rank)
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


def sample_qubit_states(cfg: SamplerConfig):
    """Yield (rho, EPERecord) pairs in index order."""
    if cfg.system != "qubit":
        raise ConfigurationError("config is not for the qubit system")
    rank = cfg.rank_filter or 4
    for start in range(0, cfg.count, CHUNK):
        n = min(CHUNK, cfg.count - start)
        rhos = _qubit_states_chunk(cfg.seed, start, n, rank)
        values, flags = qubit_records_chunk(cfg.seed, start, n, rank, cfg.measure)
        for i in range(n):
            yield rhos[i], EPERecord(
                energy=values[i, 0],
                entanglement=values[i, 1],
                purity=values[i, 2],
                on_pure_circle=bool(flags[i, 0]),
                below_mems=bool(flags[i, 1]),
                in_separable_band=bool(flags[i, 2]),
            )


# --- two-mode Gaussian sampling ---


def _rot2(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, s], [-s, c]])


def _squeeze2(r):
    return np.diag([np.exp(r), np.exp(-r)])


def _local4(S1, S2):
    out = np.zeros((4, 4))
    out[:2, :2] = S1
    out[2:, 2:] = S2
    return out


def beam_splitter(theta) -> np.ndarray:
    """Passive mixing symplectic that rotates the two modes into each other."""
    c, s = np.cos(theta), np.sin(theta)
    eye = np.eye(2)
    return np.block([[c * eye, s * eye], [-s * eye, c * eye]])


def random_local_symplectic(rng, r_max) -> np.ndarray:
    """Rotation-squeeze-rotation Euler sample of one mode's symplectic group."""
    return (
        _rot2(rng.uniform(0.0, 2.0 * np.pi))
        @ _squeeze2(rng.uniform(-r_max, r_max))
        @ _rot2(rng.uniform(0.0, 2.0 * np.pi))
    )


def _draw_inverse_square(rng, lo, hi):
    # density proportional to 1/nu^2 on [lo, hi]
    u = rng.uniform()
    return 1.0 / (1.0 / lo - u * (1.0 / lo - 1.0 / hi))

# symplectic eigenvalues are capped so sampled purities stay above ~1e-3
_NU_PRODUCT_CAP = 1.0e3


def random_covariance(rng, energy_window=(0.0, 2.0), max_attempts=1000):
    """One random physical covariance matrix inside the energy window.

    nu_- and nu_+ are drawn with density ~ 1/nu^2 (favoring nearly pure
    spectra) within ranges compatible with the window, conjugated by
    random local symplectics around a beam splitter, and rejected until
    the energy lands inside the window.
    """
    e_lo, e_hi = energy_window
    nu_hi = min(2.0 * (e_hi + 1.0) - 1.0, _NU_PRODUCT_CAP)
    r_max = 0.5 * np.arccosh(e_hi + 1.0)
    for _ in range(max_attempts):
        nu_m = _draw_inverse_square(rng, 1.0, nu_hi)
        top = min(2.0 * (e_hi + 1.0) - nu_m, _NU_PRODUCT_CAP / nu_m)
        if top <= nu_m:
            continue
        nu_p = _draw_inverse_square(rng, nu_m, top)
        nu = np.diag([nu_m, nu_m, nu_p, nu_p])
        S = (
            _local4(random_local_symplectic(rng, r_max), random_local_symplectic(rng, r_max))
            @ beam_splitter(rng.uniform(0.0, 2.0 * np.pi))
            @ _local4(random_local_symplectic(rng, r_max), random_local_symplectic(rng, r_max))
        )
        sigma = S.T @ nu @ S
        if e_lo <= np.trace(sigma) / 4.0 - 1.0 <= e_hi:
            return sigma
    raise ConfigurationError(
        f"rejection rate above {100 * (1 - 1 / max_attempts):.1f}% for window {energy_window}; "
        "widen the energy window"
    )


def gaussian_record(sf, measure="logneg") -> EPERecord:
    """EPE record with containment flags for a standard-form CM."""
    en = gaussian.energy(sf)
    pur = gaussian.purity(sf)
    logneg = gaussian.log_negativity(sf)
    ent = logneg if measure == "logneg" else gaussian.negativity(sf)

    tmsv_ln = float(np.arccosh(max(en + 1.0, 1.0)))  # -ln((E+1) - sqrt((E+1)^2 - 1))
    on_curve = pur < 1.0 - PURE_TOL or abs(logneg - tmsv_ln) <= 1e-6
    if en > 0.0:
        # clamp into the gmems domain; reduction roundoff can sit a hair
        # below the purity floor 1/(E+1)^2
        p_ref = min(max(pur, 1.0 / (en + 1.0) ** 2), 1.0)
        bound = gaussian.log_negativity(gaussian.gmems(en, p_ref))
    else:
        bound = 0.0
    below = logneg <= bound + FLAG_TOL
    in_band = logneg <= 0.0 or pur > 1.0 / (2.0 * en + 1.0) - FLAG_TOL
    return EPERecord(
        energy=en,
        entanglement=ent,
        purity=pur,
        on_pure_circle=bool(on_curve),
        below_mems=bool(below),
        in_separable_band=bool(in_band),
    )


def gaussian_records_chunk(seed, start, count, energy_window=(0.0, 2.0), measure="logneg"):
    """Records plus standard forms for indices [start, start + count)."""
    sfs = []
    values = np.empty((count, 3))
    flags = np.empty((count, 3), dtype=bool)
    for i in range(count):
        rng = index_rng(seed, start + i)
        sigma = random_covariance(rng, energy_window)
        sf = gaussian.reduce_to_standard_form(sigma)
        rec = gaussian_record(sf, measure)
        sfs.append(sf)
        values[i] = (rec.energy, rec.entanglement, rec.purity)
        flags[i] = (rec.on_pure_circle, rec.below_mems, rec.in_separable_band)
    return sfs, values, flags


def sample_gaussian_states(cfg: SamplerConfig):
    """Yield (StandardFormCM, EPERecord) pairs in index order."""
    if cfg.system != "gaussian":
        raise ConfigurationError("config is not for the gaussian system")
    for start in range(0, cfg.count, CHUNK):
        n = min(CHUNK, cfg.count - start)
        sfs, values, flags = gaussian_records_chunk(
            cfg.seed, start, n, cfg.energy_window, cfg.measure
        )
        for i in range(n):
            yield sfs[i], EPERecord(
                energy=values[i, 0],
                entanglement=values[i, 1],
                purity=values[i, 2],
                on_pure_circle=bool(flags[i, 0]),
                below_mems=bool(flags[i, 1]),
                in_separable_band=bool(flags[i, 2]),
            )


def sample_states(cfg: SamplerConfig):
    return sample_qubit_states(cfg) if cfg.system == "qubit" else sample_gaussian_states(cfg)


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
