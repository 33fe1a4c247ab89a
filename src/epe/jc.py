"""Resonant Jaynes-Cummings entanglement transfer from two modes to two qubits.

Mode j couples only to atom j through lambda (a_j sigma+_j + a_j^dag
sigma-_j) with equal couplings, so the joint evolution factorizes into
independent atom-mode pairs and, within each pair, into closed
two-dimensional sectors {|g, n>, |e, n-1>}.  Evolution is therefore
evaluated in closed form at any dimensionless time lambda*t; there is
no integrator and no step error.  Both atoms start in the ground state.

States live in a truncated double Fock space as complex amplitude
tables of shape (n_max + 1, n_max + 1, 2, 2) indexed by
(n1, n2, atom1, atom2) with atom level 0 = ground, 1 = excited.  Since
the inputs leave the atoms in the ground level, the truncated evolution
is exact up to the input tail beyond n_max.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import qubit
from .errors import DomainError, TruncationError

DEFAULT_N_MAX = 40
TAIL_TOL = 1e-12
GAMMA_CAP = 0.95
# times per reduced_states call in the max_transfer grid scan; bounds the
# (block, n_max + 1) work arrays whatever the grid length
GRID_BLOCK = 128


@dataclass(frozen=True)
class SinglePhoton:
    """One photon shared between the modes, (|01> + |10>)/sqrt(2)."""


@dataclass(frozen=True)
class NPhoton:
    """n photons in one mode or the other, (|0,n> + |n,0>)/sqrt(2)."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("photon number must be a positive integer")


@dataclass(frozen=True)
class EntangledCoherent:
    """Superposition of a coherent state in either mode, (|0,alpha> + |alpha,0>) normalized."""

    alpha: complex


@dataclass(frozen=True)
class TwoModeSqueezed:
    """Two-mode squeezed vacuum sqrt(1 - gamma^2) sum_n gamma^n |n,n> with gamma = tanh r."""

    gamma: float

    def __post_init__(self):
        if not 0.0 <= self.gamma < 1.0:
            raise DomainError("squeezing parameter gamma must lie in [0, 1)")


InputFieldSpec = Union[SinglePhoton, NPhoton, EntangledCoherent, TwoModeSqueezed]


@dataclass
class JointAtomFieldState:
    """Amplitude table over (n1, n2, atom1, atom2) in a truncated Fock space."""

    amps: np.ndarray

    @property
    def n_max(self) -> int:
        return self.amps.shape[0] - 1

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


@dataclass(frozen=True)
class TransferResult:
    """Outcome of a transfer maximization over dimensionless time."""

    lambda_t: float
    qubit_state: np.ndarray
    concurrence: float
    purity: float
    input_energy: float
    input_entropy: float


def minimize_scalar(fun, **kwargs):
    """scipy.optimize.minimize_scalar, imported on first call to keep scipy out of start-up."""
    from scipy.optimize import minimize_scalar as scipy_minimize_scalar

    return scipy_minimize_scalar(fun, **kwargs)


def _poisson_tail(mean, n_max):
    from scipy.special import gammaln

    if mean == 0.0:
        return 0.0
    n = np.arange(n_max + 1)
    logp = -mean + n * np.log(mean) - gammaln(n + 1)
    return max(0.0, 1.0 - np.exp(logp).sum())


def required_n_max(spec: InputFieldSpec, tail=TAIL_TOL) -> int:
    """Smallest per-mode truncation keeping the input tail below `tail`."""
    if isinstance(spec, SinglePhoton):
        return 1
    if isinstance(spec, NPhoton):
        return spec.n
    if isinstance(spec, TwoModeSqueezed):
        g = spec.gamma
        if g == 0.0:
            return 1
        # geometric tail: sum_{n > m} (1 - g^2) g^{2n} = g^{2(m+1)}
        return max(1, int(np.ceil(np.log(tail) / (2.0 * np.log(g)) - 1.0)))
    if isinstance(spec, EntangledCoherent):
        mean = abs(spec.alpha) ** 2
        m = 1
        while _poisson_tail(mean, m) > tail:
            m += 1
            if m > 100_000:
                raise DomainError("coherent amplitude too large to truncate")
        return m
    raise DomainError(f"unknown input specification {spec!r}")


def resolve_n_max(spec: InputFieldSpec, n_max=None) -> int:
    """Default truncation, auto-raised to keep the tail below tolerance.

    An explicitly requested truncation that is too small raises
    TruncationError carrying the required value.
    """
    needed = required_n_max(spec)
    if n_max is None:
        return max(DEFAULT_N_MAX, needed)
    n_max = int(n_max)
    if n_max < needed:
        raise TruncationError(
            f"n_max={n_max} leaves an input tail above {TAIL_TOL}; need n_max>={needed}",
            required_n_max=needed,
        )
    return n_max


def _coherent_amplitudes(alpha, n_max):
    from scipy.special import gammaln

    n = np.arange(n_max + 1)
    mag = np.exp(-abs(alpha) ** 2 / 2.0 + n * np.log(abs(alpha) + 1e-300) - gammaln(n + 1) / 2.0)
    return mag * np.exp(1j * np.angle(alpha) * n)


def _field_amplitudes(spec: InputFieldSpec, n_max):
    dim = n_max + 1
    field = np.zeros((dim, dim), dtype=complex)
    if isinstance(spec, SinglePhoton):
        field[0, 1] = field[1, 0] = 1.0 / np.sqrt(2.0)
    elif isinstance(spec, NPhoton):
        field[0, spec.n] = field[spec.n, 0] = 1.0 / np.sqrt(2.0)
    elif isinstance(spec, EntangledCoherent):
        ca = _coherent_amplitudes(spec.alpha, n_max)
        field[0, :] += ca
        field[:, 0] += ca
        field /= np.sqrt(2.0 * (1.0 + np.exp(-abs(spec.alpha) ** 2)))
    elif isinstance(spec, TwoModeSqueezed):
        n = np.arange(dim)
        field[n, n] = np.sqrt(1.0 - spec.gamma**2) * spec.gamma**n
    else:
        raise DomainError(f"unknown input specification {spec!r}")
    return field


def build_input(spec: InputFieldSpec, n_max=None) -> JointAtomFieldState:
    """Initial field state tensored with both atoms in the ground level.

    The truncated amplitude table is renormalized to unit norm, which
    perturbs the state by at most the tail tolerance.
    """
    n_max = resolve_n_max(spec, n_max)
    field = _field_amplitudes(spec, n_max)
    amps = np.zeros((n_max + 1, n_max + 1, 2, 2), dtype=complex)
    amps[:, :, 0, 0] = field
    amps /= np.linalg.norm(amps)
    return JointAtomFieldState(amps=amps)


def evolve(state: JointAtomFieldState, lambda_t) -> JointAtomFieldState:
    """Exact sector-wise evolution to dimensionless time lambda*t.

    In each atom-mode pair the sector {|g, n>, |e, n-1>} rotates with
    amplitude cos(sqrt(n) lambda t) and coupling -i sin(sqrt(n) lambda t),
    while |g, 0> is stationary.  The topmost excited level |e, n_max>
    would couple outside the truncation and is held fixed; it is never
    populated by inputs that start in the atomic ground state.
    """
    amps = state.amps
    dim = amps.shape[0]
    n = np.arange(1, dim)
    c = np.cos(np.sqrt(n) * lambda_t)
    s = np.sin(np.sqrt(n) * lambda_t)

    out = amps.copy()
    g, e = amps[:, :, 0, :], amps[:, :, 1, :]
    out[1:, :, 0, :] = c[:, None, None] * g[1:] - 1j * s[:, None, None] * e[:-1]
    out[:-1, :, 1, :] = c[:, None, None] * e[:-1] - 1j * s[:, None, None] * g[1:]

    amps = out
    out = amps.copy()
    g, e = amps[:, :, :, 0], amps[:, :, :, 1]
    out[:, 1:, :, 0] = c[None, :, None] * g[:, 1:] - 1j * s[None, :, None] * e[:, :-1]
    out[:, :-1, :, 1] = c[None, :, None] * e[:, :-1] - 1j * s[None, :, None] * g[:, 1:]
    return JointAtomFieldState(amps=out)


def reduce_to_qubits(state: JointAtomFieldState) -> np.ndarray:
    """Partial trace over both field modes, as a 4x4 atomic density matrix.

    Atom levels map to qubit basis states g -> 0 and e -> 1.
    """
    rho = np.einsum("nmab,nmcd->abcd", state.amps, state.amps.conj()).reshape(4, 4)
    return (rho + rho.conj().T) / 2.0


def reduced_states(state: JointAtomFieldState, times) -> np.ndarray:
    """Reduced two-qubit states at many times, shape (len(times), 4, 4).

    Closed form of reduce_to_qubits(evolve(state, t)) for inputs with
    both atoms in the ground level.  Each atom-mode pair takes |g, m + a>
    to X_a(t, m) |a, m> with X_0 = cos(sqrt(m) t) and
    X_1 = -i sin(sqrt(m + 1) t), so with the shifted field tables
    F_ab[m1, m2] = F[m1 + a, m2 + b] (zero beyond the truncation)

        rho_{ab,cd}(t) = sum_{m1,m2} X_a X_c^*(t, m1) (F_ab F_cd^*)[m1, m2] X_b X_d^*(t, m2),

    one (T, d) @ (d, d) product per entry and no loop over times.
    `evolve` stays the independent oracle for this function.
    """
    amps = state.amps
    if np.any(amps[:, :, 1, :]) or np.any(amps[:, :, :, 1]):
        raise DomainError("reduced_states needs both atoms in the ground level")
    t = np.asarray(times, dtype=float).ravel()
    dim = amps.shape[0]
    root = np.sqrt(np.arange(dim + 1))
    x = (np.cos(np.outer(t, root[:-1])), -1j * np.sin(np.outer(t, root[1:])))
    xx = {(a, c): x[a] * x[c].conj() for a in (0, 1) for c in (0, 1)}
    field = np.zeros((dim + 1, dim + 1), dtype=complex)
    field[:dim, :dim] = amps[:, :, 0, 0]
    shifted = {(a, b): field[a : a + dim, b : b + dim] for a in (0, 1) for b in (0, 1)}

    rho = np.empty((t.size, 4, 4), dtype=complex)
    for a, b, c, d in itertools.product((0, 1), repeat=4):
        weights = shifted[a, b] * shifted[c, d].conj()
        rho[:, 2 * a + b, 2 * c + d] = ((xx[a, c] @ weights) * xx[b, d]).sum(axis=1)
    return (rho + rho.conj().swapaxes(1, 2)) / 2.0


def sector_norms(state: JointAtomFieldState) -> np.ndarray:
    """Probability in each total-excitation sector n1 + n2 + e1 + e2.

    The evolution is block diagonal over these sectors, so the vector
    is a constant of motion.
    """
    dim = state.amps.shape[0]
    n1, n2, s1, s2 = np.ogrid[0:dim, 0:dim, 0:2, 0:2]
    total = (n1 + n2 + s1 + s2).ravel()
    probs = np.abs(state.amps).ravel() ** 2
    out = np.zeros(2 * dim + 1)
    np.add.at(out, total, probs)
    return out


def input_energy(spec: InputFieldSpec) -> float:
    """Mean total photon number of the input field."""
    if isinstance(spec, SinglePhoton):
        return 1.0
    if isinstance(spec, NPhoton):
        return float(spec.n)
    if isinstance(spec, EntangledCoherent):
        m = abs(spec.alpha) ** 2
        return m / (1.0 + np.exp(-m))
    if isinstance(spec, TwoModeSqueezed):
        g2 = spec.gamma**2
        return 2.0 * g2 / (1.0 - g2)
    raise DomainError(f"unknown input specification {spec!r}")


def input_entropy(spec: InputFieldSpec) -> float:
    """Von Neumann entropy (nats) of either reduced mode of the input.

    All inputs are pure, so this is the entanglement between the modes,
    computed from the Schmidt spectrum.  For the photon-number
    superpositions it is ln 2; for the squeezed input it is
    -ln(1 - gamma^2) - E_in ln(gamma), which is nonnegative.
    """
    if isinstance(spec, (SinglePhoton, NPhoton)):
        return float(np.log(2.0))
    if isinstance(spec, EntangledCoherent):
        t = np.exp(-abs(spec.alpha) ** 2 / 2.0)  # overlap <0|alpha>
        lam = np.array([(1.0 + t) ** 2, (1.0 - t) ** 2]) / (2.0 * (1.0 + t**2))
        lam = lam[lam > 0.0]
        return float(-(lam * np.log(lam)).sum())
    if isinstance(spec, TwoModeSqueezed):
        g = spec.gamma
        if g == 0.0:
            return 0.0
        g2 = g**2
        e_in = 2.0 * g2 / (1.0 - g2)
        return float(-np.log(1.0 - g2) - e_in * np.log(g))
    raise DomainError(f"unknown input specification {spec!r}")


def schmidt_entropy(state: JointAtomFieldState) -> float:
    """Entropy of one mode of a pure field-only state, via singular values.

    Numerical cross-check for input_entropy; valid while the atoms are
    still in the ground level.
    """
    field = state.amps[:, :, 0, 0]
    sv = np.linalg.svd(field, compute_uv=False)
    p = sv**2
    p = p[p > 1e-300]
    return float(-(p * np.log(p)).sum())


def _npn_matrix(n, lambda_t):
    phase = np.sqrt(n) * lambda_t
    c2 = np.cos(phase) ** 2
    s2 = np.sin(phase) ** 2
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = c2
    rho[1, 1] = rho[2, 2] = s2 / 2.0
    if n == 1:
        rho[1, 2] = rho[2, 1] = s2 / 2.0
    return rho


def _coherent_series_matrix(spec: EntangledCoherent, lambda_t, n_max):
    # closed-form entries of the reduced state; the only coherences are
    # within the zero-excited and one-excited atomic levels, and the
    # |ee> row vanishes identically because each branch drives one atom
    m2 = abs(spec.alpha) ** 2
    norm2 = 1.0 / (2.0 * (1.0 + np.exp(-m2)))
    ca = _coherent_amplitudes(spec.alpha, n_max)
    n = np.arange(n_max + 1)
    cphi = np.cos(np.sqrt(n) * lambda_t)
    sphi = np.sin(np.sqrt(n) * lambda_t)
    p = np.abs(ca) ** 2

    a = norm2 * (4.0 * p[0] + 2.0 * (p[1:] * cphi[1:] ** 2).sum())
    b = norm2 * (p[1:] * sphi[1:] ** 2).sum()
    z = norm2 * p[1] * sphi[1] ** 2
    cross = 2.0 * ca[0] * ca[1].conj() * sphi[1] + (
        ca[1:-1] * ca[2:].conj() * cphi[1:-1] * sphi[2:]
    ).sum()
    x = 1j * norm2 * cross

    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = a
    rho[1, 1] = rho[2, 2] = b
    rho[1, 2] = rho[2, 1] = z
    rho[0, 1] = rho[0, 2] = x
    rho[1, 0] = rho[2, 0] = np.conj(x)
    return rho


def squeezed_series_matrix(gamma, lambda_t, n_max, convention="double") -> np.ndarray:
    """X-state series for the squeezed input, summed to the truncation.

    With A = 1 - gamma^2 and the double-angle convention the diagonal
    weights are A/4 sum gamma^(2n) (cos(2 sqrt(n) lt) +- 1)^2 and
    A/4 sum gamma^(2n) sin^2(2 sqrt(n) lt), with the corner coherence

        x = A/4 sum gamma^(2n+1) (cos(2 sqrt(n+1) lt) - 1)(cos(2 sqrt(n) lt) + 1).

    The "half" convention replaces every 2 sqrt(n) lt by sqrt(n) lt; it
    exists only to quantify how badly the halved phases disagree with
    the numerical evolution (see squeezed_convention_deviation).
    """
    if convention not in ("double", "half"):
        raise DomainError(f"unknown trig convention {convention!r}")
    scale = 2.0 if convention == "double" else 1.0
    A = 1.0 - gamma**2
    n = np.arange(n_max + 1)
    w = gamma ** (2 * n)
    cn = np.cos(scale * np.sqrt(n) * lambda_t)
    sn = np.sin(scale * np.sqrt(n) * lambda_t)
    a = (A / 4.0) * (w * (cn + 1.0) ** 2).sum()
    b = (A / 4.0) * (w * sn**2).sum()
    d = (A / 4.0) * (w * (cn - 1.0) ** 2).sum()
    x = (A / 4.0) * (w[:-1] * gamma * (cn[1:] - 1.0) * (cn[:-1] + 1.0)).sum()
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = a
    rho[1, 1] = rho[2, 2] = b
    rho[3, 3] = d
    rho[0, 3] = rho[3, 0] = x
    return rho


def analytic_qubit_state(spec: InputFieldSpec, lambda_t, n_max=None) -> np.ndarray:
    """Closed-form reduced two-qubit state, independent of `evolve`.

    Series are truncated at the same n_max used by the numerical route,
    so the two agree to the truncation tail.
    """
    n_max = resolve_n_max(spec, n_max)
    if isinstance(spec, SinglePhoton):
        return _npn_matrix(1, lambda_t)
    if isinstance(spec, NPhoton):
        return _npn_matrix(spec.n, lambda_t)
    if isinstance(spec, EntangledCoherent):
        return _coherent_series_matrix(spec, lambda_t, n_max)
    if isinstance(spec, TwoModeSqueezed):
        return squeezed_series_matrix(spec.gamma, lambda_t, n_max)
    raise DomainError(f"unknown input specification {spec!r}")


def squeezed_convention_deviation(gamma, times, n_max=None):
    """Max deviation of both trig conventions from the numerical evolution.

    Returns a dict {"double": dev, "half": dev} of entrywise maxima over
    the given times.  The double-angle series reproduces the numerics to
    roundoff; the halved one does not.
    """
    spec = TwoModeSqueezed(gamma=gamma)
    n_max = resolve_n_max(spec, n_max)
    state0 = build_input(spec, n_max)
    devs = {"double": 0.0, "half": 0.0}
    for t in np.atleast_1d(times):
        rho_num = reduce_to_qubits(evolve(state0, t))
        for conv in devs:
            rho_an = squeezed_series_matrix(gamma, t, n_max, convention=conv)
            devs[conv] = max(devs[conv], float(np.abs(rho_num - rho_an).max()))
    return devs


def default_time_grid(t_max=4.0 * np.pi, steps=2000) -> np.ndarray:
    return np.linspace(0.0, t_max, steps)


def max_transfer(spec: InputFieldSpec, time_grid=None, n_max=None) -> TransferResult:
    """Scan lambda*t for the largest transferred concurrence.

    The grid is evaluated by `reduced_states` in blocks of GRID_BLOCK
    times.  Every local grid maximum within 1e-3 of the best grid value
    (a flat run of equal values counting once) is refined through
    `evolve` by bounded scalar minimization to 1e-8 in lambda*t, and
    ties between refined peaks (within 1e-10) resolve to the earliest
    time.  The result also records the purity at the optimum and the
    input energy and entropy.
    """
    if time_grid is None:
        time_grid = default_time_grid()
    grid = np.asarray(time_grid, dtype=float)
    if grid.size == 0:
        raise DomainError("time grid must not be empty")
    if grid.size > 1 and np.any(np.diff(grid) <= 0.0):
        raise DomainError("time grid must be strictly increasing")

    n_max = resolve_n_max(spec, n_max)
    state0 = build_input(spec, n_max)

    def conc_at(t):
        return qubit.concurrence(reduce_to_qubits(evolve(state0, t)), check=False)

    # the closed form only ranks the grid; refinement and the reported
    # state come from evolve
    vals = np.concatenate([
        qubit.concurrence(reduced_states(state0, grid[i : i + GRID_BLOCK]), check=False)
        for i in range(0, grid.size, GRID_BLOCK)
    ])
    best_grid = vals.max()

    # a run of exactly equal grid values, such as a stretch of C = 0, is
    # one candidate at its first point
    first = np.flatnonzero(np.r_[True, vals[1:] != vals[:-1]])
    runs = vals[first]
    left = np.r_[-np.inf, runs[:-1]]
    right = np.r_[runs[1:], -np.inf]
    candidates = first[(runs >= left) & (runs >= right) & (runs >= best_grid - 1e-3)]

    best_t, best_c = float(grid[int(np.argmax(vals))]), float(best_grid)
    for i in candidates:
        lo = grid[i - 1] if i > 0 else grid[i]
        hi = grid[i + 1] if i + 1 < grid.size else grid[i]
        if hi > lo:
            res = minimize_scalar(
                lambda t: -conc_at(t), bounds=(lo, hi), method="bounded",
                options={"xatol": 1e-8},
            )
            t_ref, c_ref = float(res.x), float(-res.fun)
        else:
            t_ref, c_ref = float(grid[i]), float(vals[i])
        if c_ref > best_c + 1e-10 or (abs(c_ref - best_c) <= 1e-10 and t_ref < best_t):
            best_t, best_c = t_ref, c_ref

    rho = reduce_to_qubits(evolve(state0, best_t))
    return TransferResult(
        lambda_t=best_t,
        qubit_state=rho,
        concurrence=qubit.concurrence(rho, check=False),
        purity=qubit.purity(rho, check=False),
        input_energy=input_energy(spec),
        input_entropy=input_entropy(spec),
    )
