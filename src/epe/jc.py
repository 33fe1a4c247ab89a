"""Resonant Jaynes-Cummings entanglement transfer from two modes to two qubits.

Mode j couples only to atom j through lambda (a_j sigma+_j + a_j^dag
sigma-_j) with equal couplings, so the joint evolution factorizes into
independent atom-mode pairs and, within each pair, into closed
two-dimensional sectors {|g, n>, |e, n-1>}.  Evolution is therefore
evaluated in closed form at any dimensionless time lambda*t; there is
no integrator and no step error.  Both atoms start in the ground state.

Each input is built once as its field support (`field_support`): the
nonzero entries F[n1, n2] of its truncated two-mode field table in
row-major order, with both atoms in the ground level by construction.
Every supported input has O(n_max) of them.  `reduced_states` evaluates
the reduced two-qubit state at many times from the support alone, and
`propagated_qubit_state` propagates the support's amplitudes over the
sectors it reaches, as the independent check at one time.  Since the
atoms start in the ground level, the truncated evolution is exact up to
the input tail beyond n_max.

The dense amplitude table, a plain complex array of shape
(n_max + 1, n_max + 1, 2, 2) indexed by (n1, n2, atom1, atom2) with atom
level 0 = ground, 1 = excited, is the reference: `build_input` scatters
a support into it, and `evolve` with `reduce_to_qubits`, which take and
return such arrays, is the oracle the tests hold the support routes to.
"""

from __future__ import annotations

import cmath
import itertools
import math
import numbers
import operator
from typing import NamedTuple, Union

import numpy as np

from . import qubit
from .errors import DomainError, InvariantViolation, TruncationError

TAIL_TOL = 1e-12
DEFAULT_T_MAX = 4.0 * np.pi
DEFAULT_T_STEPS = 2000
# largest per-mode truncation, chosen or requested; the dense reference
# tables of `build_input` and `evolve` grow as n_max^2 (README: the cap)
MAX_N_MAX = 1500
# times per reduced_states call in the max_transfer grid scan; bounds the
# (block, support size) work arrays whatever the grid length
GRID_BLOCK = 128
# peak refinement: times per bracket and pass, and the bracket width that ends it
REFINE_POINTS = 9
REFINE_WIDTH = 2e-8


class NPhoton:
    """n photons in one mode or the other, (|0,n> + |n,0>)/sqrt(2)."""

    def __init__(self, n: int):
        try:
            n = operator.index(n)
        except TypeError:
            raise DomainError(f"photon number must be a positive integer, got {n!r}") from None
        if n < 1:
            raise DomainError("photon number must be a positive integer")
        self.n = n

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n!r})"


class SinglePhoton(NPhoton):
    """One photon shared between the modes, (|01> + |10>)/sqrt(2): NPhoton with n = 1."""

    def __init__(self):
        super().__init__(1)

    def __repr__(self):
        return "SinglePhoton()"


class EntangledCoherent:
    """Superposition of a coherent state in either mode, (|0,alpha> + |alpha,0>) normalized."""

    def __init__(self, alpha: complex):
        if not isinstance(alpha, numbers.Complex):
            raise DomainError(f"coherent amplitude alpha must be a number, got {alpha!r}")
        if not cmath.isfinite(alpha):
            raise DomainError(f"coherent amplitude alpha must be finite, got {alpha!r}")
        self.alpha = alpha

    def __repr__(self):
        return f"EntangledCoherent(alpha={self.alpha!r})"


class TwoModeSqueezed:
    """Two-mode squeezed vacuum sqrt(1 - gamma^2) sum_n gamma^n |n,n> with gamma = tanh r."""

    def __init__(self, gamma: float):
        if not (isinstance(gamma, numbers.Real) and 0.0 <= gamma < 1.0):
            raise DomainError("squeezing parameter gamma must lie in [0, 1)")
        self.gamma = gamma

    def __repr__(self):
        return f"TwoModeSqueezed(gamma={self.gamma!r})"


InputFieldSpec = Union[NPhoton, EntangledCoherent, TwoModeSqueezed]


class FieldSupport:
    """The nonzero field entries of an input with both atoms in the ground level.

    `n1`, `n2` and `amps` list the entries F[n1, n2] of the truncated
    field table in row-major order, within the truncation `n_max`.  The
    pairings `reduced_states` sums over are derived once, here.  For each
    (a, b, c, d) of itertools.product((0, 1), repeat=4) they are the
    photon numbers (m1, m2) with nonzero weight
    w = F[m1 + a, m2 + b] F[m1 + c, m2 + d]^*, in the row-major order of
    (m1 + a, m2 + b); a `searchsorted` on the row-major index of the
    entries finds each partner (m1 + c, m2 + d).  `blocks` lists, for
    each (a, b, c, d) with pairs, ((a, b, c, d), i1, i2, w): the positions
    of m1 and m2 in `levels`, the photon numbers at which `reduced_states`
    evaluates its time factors, and the weights.
    """

    def __init__(self, n_max: int, n1, n2, amps):
        n1, n2 = np.asarray(n1, dtype=int), np.asarray(n2, dtype=int)
        amps = np.asarray(amps, dtype=complex)
        if n1.size == 0:
            raise DomainError("a field support needs at least one entry")
        # one column of padding, so a partner beyond the truncation has a
        # key of its own and matches no entry
        width = n_max + 2
        key = n1 * width + n2
        if (n1.min() < 0 or n2.min() < 0 or max(n1.max(), n2.max()) > n_max
                or np.any(np.diff(key) <= 0)):
            raise DomainError("support entries must be distinct, row-major and within n_max")
        found = []
        for a, b, c, d in itertools.product((0, 1), repeat=4):
            # F_ab is nonzero at m = n - (a, b); keep the points where F_cd is too
            src = np.flatnonzero((n1 >= a) & (n2 >= b))
            m1, m2 = n1[src] - a, n2[src] - b
            target = (m1 + c) * width + m2 + d
            at = np.minimum(np.searchsorted(key, target), key.size - 1)
            hit = key[at] == target
            w = amps[src[hit]] * amps[at[hit]].conj()
            keep = w != 0.0
            if keep.any():
                found.append(((a, b, c, d), m1[hit][keep], m2[hit][keep], w[keep]))
        # no np.unique: its first call imports numpy.ma, about 16 ms per process
        present = np.zeros(n_max + 1, dtype=bool)
        for _, m1, m2, _ in found:
            present[m1] = present[m2] = True
        self.n_max, self.n1, self.n2, self.amps = n_max, n1, n2, amps
        self.levels = np.flatnonzero(present)
        position = np.cumsum(present) - 1
        self.blocks = tuple((abcd, position[m1], position[m2], w) for abcd, m1, m2, w in found)

    def __repr__(self):
        return (f"FieldSupport(n_max={self.n_max!r}, n1={self.n1!r}, n2={self.n2!r}, "
                f"amps={self.amps!r})")


class TransferResult(NamedTuple):
    """Outcome of a transfer maximization over dimensionless time.

    `qubit_state` is reduced_states(input_state, [lambda_t])[0] and
    `input_state` the field support of the truncated input the scan
    evolved.
    """

    lambda_t: float
    qubit_state: np.ndarray
    concurrence: float
    purity: float
    input_energy: float
    input_entropy: float
    input_state: FieldSupport


def log_factorials(n_max) -> np.ndarray:
    """ln k! for k = 0..n_max, as math.lgamma(k + 1)."""
    return np.array([math.lgamma(k + 1.0) for k in range(n_max + 1)])


def _poisson_log_weights(mean, n_max) -> np.ndarray:
    """ln of the Poisson(mean) weights e^-mean mean^n / n! for n = 0..n_max."""
    n = np.arange(n_max + 1)
    if mean == 0.0:
        return np.where(n == 0, 0.0, -np.inf)
    return -mean + n * np.log(mean) - log_factorials(n_max)


def required_n_max(spec: InputFieldSpec) -> int:
    """Smallest per-mode truncation keeping the input tail below TAIL_TOL.

    The coherent tail is summed from the top of a table of Poisson weights,
    so it does not cancel.  Raises DomainError when the truncation is above
    MAX_N_MAX; a coherent mean above it raises before any table is built.
    """
    if isinstance(spec, NPhoton):
        m = spec.n
    elif isinstance(spec, TwoModeSqueezed):
        g = spec.gamma
        # geometric tail: sum_{n > m} (1 - g^2) g^{2n} = g^{2(m+1)}
        m = 1 if g == 0.0 else max(1, int(np.ceil(np.log(TAIL_TOL) / (2.0 * np.log(g)) - 1.0)))
    elif isinstance(spec, EntangledCoherent):
        # a product, which reads inf where the power would raise OverflowError
        mean = abs(spec.alpha) * abs(spec.alpha)
        if mean > MAX_N_MAX:
            # the answer is above the mean, so above the cap too: no table
            m = MAX_N_MAX + 1
        else:
            # Bernstein's inequality puts the Poisson tail above `horizon`
            # below TAIL_TOL; a table to twice it leaves out far less than that
            third = -math.log(TAIL_TOL) / 3.0
            horizon = math.ceil(mean + third + math.sqrt(third * third + 6.0 * third * mean))
            # above[k]: the weight at n >= k, summed from the top
            above = np.cumsum(np.exp(_poisson_log_weights(mean, 2 * horizon))[::-1])[::-1]
            m = 1 + int(np.argmax(above[2:] <= TAIL_TOL))
    else:
        raise DomainError(f"unknown input specification {spec!r}")
    if m > MAX_N_MAX:
        raise DomainError(f"the input needs a Fock truncation above the cap n_max={MAX_N_MAX}")
    return m


def resolve_n_max(spec: InputFieldSpec, n_max=None) -> int:
    """The truncation to use: `n_max`, or by default `required_n_max`.

    Either above MAX_N_MAX raises DomainError before anything is
    allocated.  An explicitly requested truncation that is too small
    raises TruncationError carrying the required value.
    """
    if n_max is not None:
        n_max = int(n_max)
        if n_max > MAX_N_MAX:
            raise DomainError(f"n_max={n_max} is above the cap n_max={MAX_N_MAX}")
    needed = required_n_max(spec)
    if n_max is None:
        return needed
    if n_max < needed:
        raise TruncationError(
            f"n_max={n_max} leaves an input tail above {TAIL_TOL}; need n_max>={needed}",
            required_n_max=needed,
        )
    return n_max


def _coherent_amplitudes(alpha, n_max):
    n = np.arange(n_max + 1)
    mag = np.exp(_poisson_log_weights(abs(alpha) ** 2, n_max) / 2.0)
    return mag * np.exp(1j * np.angle(alpha) * n)


def field_support(spec: InputFieldSpec, n_max=None) -> FieldSupport:
    """The input's field support at truncation `n_max` (default: the required one).

    The entries are built from the spec without its normalizing constant
    and normalized once over the support, which perturbs the state by at
    most the tail tolerance.  Entries that underflow to zero are dropped.
    """
    n_max = resolve_n_max(spec, n_max)
    if isinstance(spec, NPhoton):
        n1, n2 = np.array([0, spec.n]), np.array([spec.n, 0])
        amps = np.ones(2, dtype=complex)
    elif isinstance(spec, EntangledCoherent):
        # row 0, then column 0 below it; the vacuum entry gets both branches
        ca = _coherent_amplitudes(spec.alpha, n_max)
        n1 = np.concatenate([np.zeros(n_max + 1, dtype=int), np.arange(1, n_max + 1)])
        n2 = np.concatenate([np.arange(n_max + 1), np.zeros(n_max, dtype=int)])
        amps = np.concatenate([ca, ca[1:]])
        amps[0] *= 2.0
    else:
        # resolve_n_max has refused any other spec: TwoModeSqueezed
        n1 = n2 = np.arange(n_max + 1)
        amps = (spec.gamma**n1).astype(complex)
    # a numpy sum, not a BLAS norm, so the bytes do not depend on the BLAS kernel
    amps /= np.sqrt(np.sum(amps.real**2 + amps.imag**2))
    nonzero = amps != 0.0
    return FieldSupport(n_max=n_max, n1=n1[nonzero], n2=n2[nonzero], amps=amps[nonzero])


def build_input(spec: InputFieldSpec, n_max=None) -> np.ndarray:
    """The dense reference table of `field_support(spec, n_max)`, both atoms
    in the ground level."""
    support = field_support(spec, n_max)
    dim = support.n_max + 1
    amps = np.zeros((dim, dim, 2, 2), dtype=complex)
    amps[support.n1, support.n2, 0, 0] = support.amps
    return amps


def evolve(amps, lambda_t) -> np.ndarray:
    """Exact sector-wise evolution of a dense table to dimensionless time lambda*t.

    In each atom-mode pair the sector {|g, n>, |e, n-1>} rotates with
    amplitude cos(sqrt(n) lambda t) and coupling -i sin(sqrt(n) lambda t),
    while |g, 0> is stationary.  The topmost excited level |e, n_max>
    would couple outside the truncation and is held fixed; it is never
    populated by inputs that start in the atomic ground state.
    """
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
    return out


def reduce_to_qubits(amps) -> np.ndarray:
    """Partial trace of a dense table over both field modes, as a 4x4 atomic
    density matrix.

    Atom levels map to qubit basis states g -> 0 and e -> 1.
    """
    rho = np.einsum("nmab,nmcd->abcd", amps, amps.conj()).reshape(4, 4)
    return (rho + rho.conj().T) / 2.0


def reduced_states(support: FieldSupport, times) -> np.ndarray:
    """Reduced two-qubit states at many times, shape (len(times), 4, 4).

    Closed form of reduce_to_qubits(evolve(build_input(...), t)).  Each
    atom-mode pair takes |g, m + a> to X_a(t, m) |a, m> with
    X_0 = cos(sqrt(m) t) and X_1 = -i sin(sqrt(m + 1) t), so with the
    shifted field tables F_ab[m1, m2] = F[m1 + a, m2 + b] (zero beyond the
    truncation)

        rho_{ab,cd}(t) = sum_{m1,m2} X_a X_c^*(t, m1) (F_ab F_cd^*)[m1, m2] X_b X_d^*(t, m2).

    The weight F_ab F_cd^* vanishes off the support, so each sum runs over
    the support's pairings alone, with the time factors at its `levels`:
    O(len(times) * support size) work and no loop over times.
    `propagated_qubit_state` and `evolve` stay independent of this sum.
    """
    t = np.asarray(times, dtype=float).ravel()
    m = support.levels.astype(float)
    x = (np.cos(np.outer(t, np.sqrt(m))), -1j * np.sin(np.outer(t, np.sqrt(m + 1.0))))
    xx = {(a, c): x[a] * x[c].conj() for a in (0, 1) for c in (0, 1)}
    rho = np.zeros((t.size, 4, 4), dtype=complex)
    for (a, b, c, d), i1, i2, w in support.blocks:
        # a numpy sum, not a BLAS product, as in field_support
        rho[:, 2 * a + b, 2 * c + d] = (xx[a, c][:, i1] * xx[b, d][:, i2] * w).sum(axis=1)
    return (rho + rho.conj().swapaxes(1, 2)) / 2.0


def propagated_qubit_state(support: FieldSupport, lambda_t) -> np.ndarray:
    """reduce_to_qubits(evolve(build_input(...), lambda_t)) over the sectors
    the support reaches, with no dense table.

    An entry F |g, n1> |g, n2> couples to four states: it evolves to
    sum_{s1,s2} u_s1(n1) u_s2(n2) F |s1, n1 - s1> |s2, n2 - s2> with
    u_0(n) = cos(sqrt(n) t) and u_1(n) = -i sin(sqrt(n) t); the |e, -1>
    terms carry u_1(0) = 0 and are dropped.  The amplitudes of each pair of
    atom levels are kept by field index, and the partial trace over the
    field pairs equal field indices of two level pairs.  The amplitude
    propagation shares nothing with the factorized sum of `reduced_states`.
    """
    t = float(lambda_t)
    width = support.n_max + 1
    u1 = (np.cos(np.sqrt(support.n1) * t), -1j * np.sin(np.sqrt(support.n1) * t))
    u2 = (np.cos(np.sqrt(support.n2) * t), -1j * np.sin(np.sqrt(support.n2) * t))
    kets = []
    for s1, s2 in itertools.product((0, 1), repeat=2):
        k1, k2 = support.n1 - s1, support.n2 - s2
        live = (k1 >= 0) & (k2 >= 0)
        kets.append(((k1 * width + k2)[live], (support.amps * u1[s1] * u2[s2])[live]))
    rho = np.empty((4, 4), dtype=complex)
    for i, (ki, psi_i) in enumerate(kets):
        for j, (kj, psi_j) in enumerate(kets):
            _, at_i, at_j = np.intersect1d(ki, kj, assume_unique=True, return_indices=True)
            rho[i, j] = np.sum(psi_i[at_i] * psi_j[at_j].conj())
    return (rho + rho.conj().T) / 2.0


def input_energy(spec: InputFieldSpec) -> float:
    """Mean total photon number of the input field."""
    if isinstance(spec, NPhoton):
        return float(spec.n)
    if isinstance(spec, EntangledCoherent):
        m = abs(spec.alpha) * abs(spec.alpha)
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
    if isinstance(spec, NPhoton):
        return float(np.log(2.0))
    if isinstance(spec, EntangledCoherent):
        t = np.exp(-abs(spec.alpha) * abs(spec.alpha) / 2.0)  # overlap <0|alpha>
        lam = np.array([(1.0 + t) ** 2, (1.0 - t) ** 2]) / (2.0 * (1.0 + t**2))
        lam = lam[lam > 0.0]
        # + 0.0: at alpha = 0 the sum is -(1 ln 1) = -0.0
        return float(-(lam * np.log(lam)).sum()) + 0.0
    if isinstance(spec, TwoModeSqueezed):
        g = spec.gamma
        if g == 0.0:
            return 0.0
        g2 = g**2
        e_in = 2.0 * g2 / (1.0 - g2)
        return float(-np.log(1.0 - g2) - e_in * np.log(g))
    raise DomainError(f"unknown input specification {spec!r}")


def _times(lambda_t):
    """lambda_t as an array with a trailing axis for the photon numbers."""
    return np.asarray(lambda_t, dtype=float)[..., None]


def _npn_matrix(n, lambda_t):
    phase = np.sqrt(n) * np.asarray(lambda_t, dtype=float)
    c2 = np.cos(phase) ** 2
    s2 = np.sin(phase) ** 2
    rho = np.zeros(phase.shape + (4, 4), dtype=complex)
    rho[..., 0, 0] = c2
    rho[..., 1, 1] = rho[..., 2, 2] = s2 / 2.0
    if n == 1:
        rho[..., 1, 2] = rho[..., 2, 1] = s2 / 2.0
    return rho


def _coherent_series_matrix(alpha, ca, lambda_t):
    # closed-form entries of the reduced state, with ca the coherent
    # amplitudes to the truncation; the only coherences are within the
    # zero-excited and one-excited atomic levels, and the |ee> row vanishes
    # identically because each branch drives one atom
    m2 = abs(alpha) ** 2
    norm2 = 1.0 / (2.0 * (1.0 + np.exp(-m2)))
    n = np.arange(ca.size)
    t = _times(lambda_t)
    cphi = np.cos(np.sqrt(n) * t)
    sphi = np.sin(np.sqrt(n) * t)
    p = np.abs(ca) ** 2

    a = norm2 * (4.0 * p[0] + 2.0 * (p[1:] * cphi[..., 1:] ** 2).sum(-1))
    b = norm2 * (p[1:] * sphi[..., 1:] ** 2).sum(-1)
    z = norm2 * p[1] * sphi[..., 1] ** 2
    cross = 2.0 * ca[0] * ca[1].conj() * sphi[..., 1] + (
        ca[1:-1] * ca[2:].conj() * cphi[..., 1:-1] * sphi[..., 2:]
    ).sum(-1)
    x = 1j * norm2 * cross

    rho = np.zeros(a.shape + (4, 4), dtype=complex)
    rho[..., 0, 0] = a
    rho[..., 1, 1] = rho[..., 2, 2] = b
    rho[..., 1, 2] = rho[..., 2, 1] = z
    rho[..., 0, 1] = rho[..., 0, 2] = x
    rho[..., 1, 0] = rho[..., 2, 0] = np.conj(x)
    return rho


def squeezed_series_matrix(gamma, lambda_t, n_max) -> np.ndarray:
    """X-state series for the squeezed input, summed to the truncation.

    With A = 1 - gamma^2 the diagonal weights are
    A/4 sum gamma^(2n) (cos(2 sqrt(n) lt) +- 1)^2 and
    A/4 sum gamma^(2n) sin^2(2 sqrt(n) lt), with the corner coherence

        x = A/4 sum gamma^(2n+1) (cos(2 sqrt(n+1) lt) - 1)(cos(2 sqrt(n) lt) + 1).

    An array of times gives one matrix per time.
    """
    A = 1.0 - gamma**2
    n = np.arange(n_max + 1)
    w = gamma ** (2 * n)
    t = _times(lambda_t)
    cn = np.cos(2.0 * np.sqrt(n) * t)
    sn = np.sin(2.0 * np.sqrt(n) * t)
    a = (A / 4.0) * (w * (cn + 1.0) ** 2).sum(-1)
    b = (A / 4.0) * (w * sn**2).sum(-1)
    d = (A / 4.0) * (w * (cn - 1.0) ** 2).sum(-1)
    x = (A / 4.0) * (w[:-1] * gamma * (cn[..., 1:] - 1.0) * (cn[..., :-1] + 1.0)).sum(-1)
    rho = np.zeros(a.shape + (4, 4), dtype=complex)
    rho[..., 0, 0] = a
    rho[..., 1, 1] = rho[..., 2, 2] = b
    rho[..., 3, 3] = d
    rho[..., 0, 3] = rho[..., 3, 0] = x
    return rho


def analytic_qubit_state(spec: InputFieldSpec, lambda_t, n_max=None) -> np.ndarray:
    """Closed-form reduced two-qubit state, independent of `evolve`.

    Series are truncated at the same n_max used by the numerical route,
    so the two agree to the truncation tail.  `lambda_t` is one time,
    giving a 4x4 matrix, or an array of times, giving one matrix per
    time; the truncation is resolved (and checked) once per call.
    """
    n_max = resolve_n_max(spec, n_max)
    if isinstance(spec, NPhoton):
        return _npn_matrix(spec.n, lambda_t)
    if isinstance(spec, EntangledCoherent):
        ca = _coherent_amplitudes(spec.alpha, n_max)
        return _coherent_series_matrix(spec.alpha, ca, lambda_t)
    # resolve_n_max has refused any other spec: TwoModeSqueezed
    return squeezed_series_matrix(spec.gamma, lambda_t, n_max)


def require_shaped(support: FieldSupport) -> None:
    """Raise InvariantViolation unless `shaped_concurrence` holds: every block
    pairs levels of equal excitation parity (an X state) or none touches |ee>."""
    pairs = [abcd for abcd, *_ in support.blocks]
    if not (all(sum(abcd) % 2 == 0 for abcd in pairs)
            or all((1, 1) not in (abcd[:2], abcd[2:]) for abcd in pairs)):
        raise InvariantViolation("the support gives neither X states nor states with no |11> row")


def shaped_concurrence(rho) -> np.ndarray:
    """Wootters concurrence of a stack of X states or states with no |11> row,
    2 max(0, |rho_14| - sqrt(rho_22 rho_33), |rho_23| - sqrt(rho_11 rho_44))
    (Yu & Eberly, Quantum Inf. Comput. 7, 459 (2007)), clamped to [0, 1]."""
    rho = np.asarray(rho)
    p = rho.real.diagonal(axis1=-2, axis2=-1)
    corner = np.abs(rho[..., 0, 3]) - np.sqrt(p[..., 1] * p[..., 2])
    middle = np.abs(rho[..., 1, 2]) - np.sqrt(p[..., 0] * p[..., 3])
    # + 0.0 turns the -0.0 of a separable state into +0.0
    return np.clip(2.0 * np.maximum(corner, middle), 0.0, 1.0) + 0.0


def _refine_peaks(concurrences, lo, hi):
    """The best time and value of `concurrences` in each bracket [lo, hi]: each
    pass evaluates REFINE_POINTS evenly spaced times in every bracket, in one
    call, and keeps the two intervals around the first best time, until every
    bracket is under REFINE_WIDTH, or under 16 ulp of its larger end where t is
    large."""
    while True:
        ts = np.linspace(lo, hi, REFINE_POINTS, axis=-1)
        cs = concurrences(ts.ravel()).reshape(ts.shape)
        k, rows = cs.argmax(axis=-1), np.arange(ts.shape[0])
        lo = ts[rows, np.maximum(k - 1, 0)]
        hi = ts[rows, np.minimum(k + 1, REFINE_POINTS - 1)]
        # 16 ulp of the larger end is 8 ulp of |lo| + |hi|, which overflows near 1e308
        ulps = 16 * np.spacing(np.maximum(np.abs(lo), np.abs(hi)))
        if np.all(hi - lo < np.maximum(REFINE_WIDTH, ulps)):
            return ts[rows, k], cs[rows, k]


def max_transfer(spec: InputFieldSpec, time_grid=None, n_max=None) -> TransferResult:
    """Scan lambda*t for the largest transferred concurrence.

    The input is built once as its `field_support`, checked by
    `require_shaped`, and `reduced_states` and `shaped_concurrence` give
    the grid (in blocks of GRID_BLOCK times), the refinement and the
    reported value from it.  Every local grid maximum within 1e-3 of the
    best grid value (a flat run of equal values counting once) is refined
    over the grid intervals on either side of it, and ties between refined
    peaks (within 1e-10) resolve to the earliest time.  The result also
    records the purity at the optimum and the input energy and entropy.
    """
    if time_grid is None:
        time_grid = np.linspace(0.0, DEFAULT_T_MAX, DEFAULT_T_STEPS)
    grid = np.asarray(time_grid, dtype=float)
    if grid.size == 0:
        raise DomainError("time grid must not be empty")
    if not (np.all(np.isfinite(grid)) and np.all(np.diff(grid) > 0.0)):
        raise DomainError("time grid must be finite and strictly increasing")

    support = field_support(spec, n_max)
    require_shaped(support)

    def concurrences(times):
        return shaped_concurrence(reduced_states(support, times))

    vals = np.concatenate([concurrences(grid[i : i + GRID_BLOCK])
                           for i in range(0, grid.size, GRID_BLOCK)])
    best_grid = vals.max()

    # a run of exactly equal grid values, such as a stretch of C = 0, is
    # one candidate at its first point
    first = np.flatnonzero(np.r_[True, vals[1:] != vals[:-1]])
    runs = vals[first]
    left = np.r_[-np.inf, runs[:-1]]
    right = np.r_[runs[1:], -np.inf]
    candidates = first[(runs >= left) & (runs >= right) & (runs >= best_grid - 1e-3)]
    times, values = _refine_peaks(concurrences, grid[np.maximum(candidates - 1, 0)],
                                  grid[np.minimum(candidates + 1, grid.size - 1)])

    best_t, best_c = float(grid[int(np.argmax(vals))]), float(best_grid)
    for t_ref, c_ref in zip(times.tolist(), values.tolist()):
        if c_ref > best_c + 1e-10 or (abs(c_ref - best_c) <= 1e-10 and t_ref < best_t):
            best_t, best_c = t_ref, c_ref

    rho = reduced_states(support, [best_t])[0]
    return TransferResult(
        lambda_t=best_t,
        qubit_state=rho,
        concurrence=float(shaped_concurrence(rho)),
        purity=qubit.purity(rho, check=False),
        input_energy=input_energy(spec),
        input_entropy=input_entropy(spec),
        input_state=support,
    )
