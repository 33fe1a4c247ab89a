"""Two-qubit state algebra: entanglement, mixedness and energy measures.

States are plain 4x4 complex numpy arrays in the product basis
|00>, |01>, |10>, |11> with the first label belonging to qubit 1.  The
state measures also take a (..., 4, 4) stack and then return an array
of its leading shape; one 4x4 matrix gives a float.

Energy convention
-----------------
The single-qubit Hamiltonian is sigma_z with eigenvalues -1/2 on the
ground level |0> and +1/2 on the excited level |1> (not the +-1
convention that is also common).  The reported energy is the mean
excitation number

    E(rho) = 1 + Tr[(sigma_z x 1 + 1 x sigma_z) rho] = Tr[N rho],

with N = diag(0, 1, 1, 2), so E ranges from 0 for |00> to 2 for |11>.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, InvalidStateError, InvariantViolation

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# mean excitation number operator, basis |00>,|01>,|10>,|11>
EXCITATION_NUMBER = np.diag([0.0, 1.0, 1.0, 2.0])

_EXCITATIONS = np.diag(EXCITATION_NUMBER).astype(complex)

# entrywise gap allowed between A A^dag and rho when concurrence checks a factor
FACTOR_TOL = 1e-12
# det(rho^Gamma) above which a state is settled as PPT.  For a PSD rho of
# unit trace |rho_rs| <= sqrt(rho_rr rho_ss), so row (a, b) of |rho^Gamma|
# sums to at most (sqrt(rho_2a,2a) + sqrt(rho_2a+1,2a+1)) (sqrt(rho_bb) +
# sqrt(rho_b+2,b+2)), and the product of the four row sums, which bounds
# the sum of the 24 |terms| of the determinant, is at most 1.  The minors
# evaluation then errs by about 12 eps (3e-15), and a few-ulp gap between
# rho and A A^dag moves the determinant by at most 16 such gaps times a
# cofactor of at most 1.2: together below 1e-13, a tenth of the margin.
PPT_DET_MARGIN = 1e-12

# A matrix whose Jacobi sweeps still rotate after this many raises
# InvariantViolation; sampled states need at most 6.
JACOBI_MAX_SWEEPS = 30
_TINY = np.nextafter(0.0, 1.0)
# above this |zeta| the root sqrt(1 + zeta^2) rounds to |zeta| itself
_ZETA_ROOT_EXACT = 1e8

BELL_STATES = {
    "phi+": np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2),
    "phi-": np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2),
    "psi+": np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2),
    "psi-": np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2),
}


class LocalUnitaryParams:
    """Rotation angles and unit axes for a product unitary U1 x U2.

    U_j = exp(-i theta_j n_j . sigma) acts on qubit j.  Axes must be
    unit vectors to within 1e-12.
    """

    def __init__(self, theta1, theta2, axis1, axis2):
        for name, axis in (("axis1", axis1), ("axis2", axis2)):
            v = np.asarray(axis, dtype=float)
            if v.shape != (3,) or abs(np.linalg.norm(v) - 1.0) > 1e-12:
                raise DomainError(f"{name} must be a unit 3-vector")
        self.theta1, self.theta2, self.axis1, self.axis2 = theta1, theta2, axis1, axis2

    def __repr__(self):
        return (f"LocalUnitaryParams(theta1={self.theta1!r}, theta2={self.theta2!r}, "
                f"axis1={self.axis1!r}, axis2={self.axis2!r})")


def validate_state(rho) -> np.ndarray:
    """Check hermiticity, unit trace and positivity of 4x4 density matrices.

    Accepts one matrix or a (..., 4, 4) stack and returns the validated
    array.  Raises InvalidStateError when any matrix exceeds a tolerance
    (1e-12 hermitian/trace, -1e-10 least eigenvalue); inputs are
    rejected rather than projected back.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise InvalidStateError(f"expected 4x4 matrices, got shape {rho.shape}")
    if np.any(np.abs(rho - rho.conj().swapaxes(-1, -2)) > HERMITICITY_TOL):
        raise InvalidStateError("density matrix is not Hermitian")
    trace = np.trace(rho, axis1=-2, axis2=-1)
    if np.any(np.abs(trace.real - 1.0) > TRACE_TOL) or np.any(np.abs(trace.imag) > TRACE_TOL):
        raise InvalidStateError("density matrix does not have unit trace")
    if np.any(np.linalg.eigvalsh(rho) < -PSD_TOL):
        raise InvalidStateError("density matrix is not positive semidefinite")
    return rho


def ket_to_dm(psi) -> np.ndarray:
    """Projector |psi><psi| of a normalized 4-component state vector."""
    psi = np.asarray(psi, dtype=complex)
    return np.outer(psi, psi.conj())


def _float_or_array(x):
    return float(x) if np.ndim(x) == 0 else x


def _wootters_columns(A):
    """T = A^T (sy x sy) A of an (N, 4, k) stack of factors, as a (k, k, N) array.

    T = B + B^T with B = a1 a2^T - a0 a3^T for the rows a_i of A, built
    elementwise.  T is symmetric, so T[j] holds column j (and row j) of
    every matrix, rows along axis 1.  The stack axis is the contiguous
    one, so that every elementwise step of the kernel runs over it.
    """
    a = np.ascontiguousarray(np.moveaxis(A, 0, -1))
    B = a[1][:, None] * a[2][None] - a[0][:, None] * a[3][None]
    return B + B.transpose(1, 0, 2)


def _sum_rows(x):
    """Sum over the row axis (-2), adding the rows in index order."""
    total = x[..., 0, :] + x[..., 1, :]
    for row in range(2, x.shape[-2]):
        total += x[..., row, :]
    return total


def _jacobi_singular_values(T):
    """Singular values, as an (N, k) array, of a (k, k, N) stack of column arrays.

    One-sided (Hestenes) Jacobi, cyclic over the column pairs (p, q) and
    batched over the stack; it is at least as accurate as QR-based SVD
    for small singular values (Demmel & Veselic, SIAM J. Matrix Anal.
    Appl. 13, 1204 (1992)).  A pair is rotated where
    |t_p^H t_q| > k eps ||t_p|| ||t_q||, which is about the roundoff of
    the k-term inner product itself; a test at eps alone can be kept
    true by that roundoff forever.  Elsewhere the rotation is the exact
    identity (c = 1, s = 0).  A matrix is done after a sweep with no
    rotation, and its singular values are its column norms.  Only
    elementwise arithmetic and sums in a fixed order are used, so every
    matrix's values depend on that matrix alone, whatever the stack.
    Raises InvariantViolation if a matrix still rotates after
    JACOBI_MAX_SWEEPS sweeps.
    """
    k, _, n = T.shape
    tol2 = (k * np.finfo(float).eps) ** 2
    mu = np.empty((n, k))
    active = np.arange(n)
    for _ in range(JACOBI_MAX_SWEEPS):
        norms = _sum_rows(T.real**2 + T.imag**2)
        rotated = np.zeros(active.size, dtype=bool)
        for p in range(k - 1):
            for q in range(p + 1, k):
                P, Q = T[p], T[q]
                a, b = norms[p], norms[q]
                gamma = _sum_rows(P.conj() * Q)
                g2 = gamma.real**2 + gamma.imag**2
                rot = g2 > tol2 * a * b
                if not rot.any():
                    continue
                rotated |= rot
                # t = tan(theta) solves t^2 + 2 zeta t - 1 = 0, the smaller root;
                # the clamp keeps zeta^2 finite and t exact
                g = np.sqrt(np.maximum(g2, _TINY))
                zeta = (b - a) / (g + g)
                az = np.abs(zeta)
                root = np.maximum(az, np.sqrt(1.0 + np.minimum(az, _ZETA_ROOT_EXACT) ** 2))
                t = rot / np.copysign(az + root, zeta)
                c = 1.0 / np.sqrt(1.0 + t * t)
                # s e^{i phi}, with e^{i phi} the phase of t_p^H t_q
                s_phase = gamma * (c * t / g)
                rotated_p = c * P - s_phase.conj() * Q
                Q *= c
                Q += s_phase * P
                P[...] = rotated_p
                tg = t * g
                norms[p] = np.maximum(a - tg, 0.0)
                norms[q] = b + tg
        if not rotated.all():
            # a rotation-free sweep left these norms as computed at its start
            done = ~rotated
            mu[active[done]] = np.sqrt(norms[:, done]).T
            # compress keeps the stack axis contiguous, as the sweeps need
            active, T = active[rotated], np.compress(rotated, T, axis=-1)
        if not active.size:
            return mu
    raise InvariantViolation(
        f"Jacobi SVD of {active.size} Wootters matrices did not converge "
        f"in {JACOBI_MAX_SWEEPS} sweeps"
    )


# column pairs (j, l) of the 2x2 minors of a 4x4 matrix; pair 5 - i is
# the complement of pair i
_MINOR_COLUMNS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_MINOR_SIGNS = (1.0, -1.0, 1.0, 1.0, -1.0, 1.0)


def _ppt_determinant(rho):
    """det(rho^Gamma) of an (N, 4, 4) stack, read in place from rho.

    rho^Gamma[ab, cd] = rho[ad, cb], so with r = rho viewed as
    r[a, d, c, b], entry (2a + b, j) of rho^Gamma is r[a, j % 2, j // 2, b].
    The determinant is the Laplace sum over the 2x2 minors of rows 0, 1
    and their complements in rows 2, 3, elementwise over the stack: no
    partial-transpose copy and no LAPACK call.  Returns the real part.
    """
    r = rho.reshape(-1, 2, 2, 2, 2)

    def minors(a):
        p, q = ([r[:, a, j % 2, j // 2, b] for j in range(4)] for b in (0, 1))
        return [p[j] * q[l] - p[l] * q[j] for j, l in _MINOR_COLUMNS]

    top, bottom = minors(0), minors(1)
    return sum(sign * s * c for sign, s, c in zip(_MINOR_SIGNS, top, bottom[::-1])).real


def _check_factor(rho, A):
    if A.shape[-2:-1] != (4,) or A.shape[:-2] != rho.shape[:-2]:
        raise InvalidStateError(f"factor of shape {A.shape} does not match states {rho.shape}")
    if np.any(np.abs(A @ A.conj().swapaxes(-1, -2) - rho) > FACTOR_TOL):
        raise InvalidStateError("factor A does not give rho = A A^dag")


def concurrence(rho, check=True, factor=None):
    """Concurrence C(rho) = max(0, mu_1 - mu_2 - mu_3 - mu_4), clamped to [0, 1].

    The mu_j are the decreasingly ordered singular values of the complex
    symmetric k x k matrix T = A^T (sy x sy) A of a factor rho = A A^dag
    (Uhlmann, PRA 62, 032307 (2000)): the square roots of the eigenvalues of
    rho (sy x sy) rho* (sy x sy) (Wootters, PRL 80, 2245 (1998)), with no
    square root of an eigenvalue that is zero up to roundoff.  `factor` is a
    (..., 4, k) array A; without it, A = V diag(sqrt(max(lambda, 0))) from
    eigh(rho) and k = 4.  For k = 1 the concurrence is |T|.  Otherwise the
    singular values come from a batched one-sided Jacobi kernel over the
    whole stack, so each matrix's concurrence is the same alone or in any
    stack; its Python loop makes one matrix cost about 1 ms, so pass stacks.
    For k = 4, states with det(rho^Gamma) > PPT_DET_MARGIN are first
    settled at C = 0 without the kernel: rho^Gamma has at most one negative
    eigenvalue (Sanpera, Tarrach & Vidal, PRA 58, 826 (1998)), so such a
    state is PPT, hence separable (Horodecki, Horodecki & Horodecki, PLA
    223, 1 (1996)).  Their kernel value would clip to exactly 0 as well, so
    the result is the same bit for bit.  Smaller k skip the test: rank <= 2
    Hilbert-Schmidt states are almost surely entangled, and the test settles
    only about 7% of rank-3 states, too few to pay for itself.  `check` validates
    rho and, for a given factor, that A A^dag matches rho entrywise to
    FACTOR_TOL.
    """
    rho = validate_state(rho) if check else np.asarray(rho, dtype=complex)
    if factor is None:
        lam, V = np.linalg.eigh(rho)
        A = V * np.sqrt(np.maximum(lam, 0.0))[..., None, :]
    else:
        A = np.asarray(factor, dtype=complex)
        if check:
            _check_factor(rho, A)
    lead, k = A.shape[:-2], A.shape[-1]
    A = A.reshape(-1, 4, k)
    if k == 1:
        T = _wootters_columns(A)
        return _float_or_array(np.clip(np.abs(T[0, 0]), 0.0, 1.0).reshape(lead))
    C = np.zeros(len(A))
    unsettled = slice(None)
    if k == 4:
        # a NaN determinant leaves its state to the kernel
        unsettled = np.flatnonzero(~(_ppt_determinant(rho) > PPT_DET_MARGIN))
        A = A[unsettled]
    mu = np.sort(_jacobi_singular_values(_wootters_columns(A)), axis=-1)[..., ::-1]
    C[unsettled] = np.clip(mu[..., 0] - mu[..., 1:].sum(axis=-1), 0.0, 1.0)
    return _float_or_array(C.reshape(lead))


def tangle(rho) -> float:
    """Tangle, the squared concurrence."""
    return concurrence(rho) ** 2


def _xlog2x(x):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0.0
    out[pos] = -x[pos] * np.log2(x[pos])
    return out


def eof_from_concurrence(C) -> float:
    """Entanglement of formation as a function of concurrence.

    EoF = h(x+) + h(x-) with x+- = (1 +- sqrt(1 - C^2))/2 and
    h(x) = -x log2 x, extended by h(0) = 0.
    """
    C = np.asarray(C, dtype=float)
    root = np.sqrt(np.clip(1.0 - C**2, 0.0, None))
    xp = (1.0 + root) / 2.0
    xm = (1.0 - root) / 2.0
    out = _xlog2x(xp) + _xlog2x(xm)
    return _float_or_array(out)


def entanglement_of_formation(rho) -> float:
    """Entanglement of formation, a monotone function of the concurrence."""
    return eof_from_concurrence(concurrence(rho))


def partial_transpose(rho) -> np.ndarray:
    """Partial transpose with respect to the second qubit.

    The trace norm is independent of which subsystem is transposed, so
    the derived entanglement measures do not depend on this choice.
    """
    rho = np.asarray(rho, dtype=complex)
    return rho.reshape(rho.shape[:-2] + (2, 2, 2, 2)).swapaxes(-3, -1).reshape(rho.shape)


def _negativity(rho):
    """(||rho^Gamma||_1 - 1)/2, clamped at zero, over the leading axes."""
    trace_norm = np.abs(np.linalg.eigvalsh(partial_transpose(rho))).sum(axis=-1)
    return np.clip((trace_norm - 1.0) / 2.0, 0.0, None)


def negativity(rho, check=True):
    """Negativity N = (||rho^Gamma||_1 - 1)/2, clamped at zero."""
    rho = validate_state(rho) if check else np.asarray(rho, dtype=complex)
    return _float_or_array(_negativity(rho))


def log_negativity(rho, check=True):
    """Logarithmic negativity L_N = log2 ||rho^Gamma||_1 = log2(1 + 2N), clamped at zero."""
    rho = validate_state(rho) if check else np.asarray(rho, dtype=complex)
    return _float_or_array(np.log2(1.0 + 2.0 * _negativity(rho)))


def purity(rho, check=True):
    """Purity Tr[rho^2], between 1/4 (maximally mixed) and 1 (pure).

    Clamped to [0, 1]; roundoff on near-pure states can otherwise
    overshoot 1 by a few ulp.
    """
    rho = validate_state(rho) if check else np.asarray(rho, dtype=complex)
    return _float_or_array(np.clip(np.einsum("...ij,...ji->...", rho, rho).real, 0.0, 1.0))


def energy(rho, check=True):
    """Mean excitation number Tr[N rho], from 0 for |00> to 2 for |11>."""
    rho = validate_state(rho) if check else np.asarray(rho, dtype=complex)
    return _float_or_array(np.einsum("...ii,i->...", rho, _EXCITATIONS).real)


def _mems_parameter(C):
    C = np.asarray(C, dtype=float)
    if not np.all((0.0 <= C) & (C <= 1.0)):
        raise DomainError("concurrence parameter must lie in [0, 1]")
    return C


def mems_state(C) -> np.ndarray:
    """Maximally entangled mixed state with concurrence C.

    For C <= 2/3 the state mixes the Bell projector |phi+><phi+| with
    weight C, |01><01| with weight 1/3 and |00><00|, |11><11| with
    weight 1/3 - C/2 each; for C >= 2/3 it mixes the Bell projector
    with |01><01| at weights C and 1 - C.  Both branches coincide at
    C = 2/3.  The result has Tr[N rho] = 1, i.e. one mean excitation.
    """
    C = float(_mems_parameter(C))
    rho = C * ket_to_dm(BELL_STATES["phi+"])
    if C <= 2.0 / 3.0:
        rho[1, 1] += 1.0 / 3.0
        rho[0, 0] += 1.0 / 3.0 - C / 2.0
        rho[3, 3] += 1.0 / 3.0 - C / 2.0
    else:
        rho[1, 1] += 1.0 - C
    if abs(np.trace(rho).real - 1.0) > 1e-12:
        raise RuntimeError("MEMS construction lost unit trace")
    return rho


def mems_purity(C):
    """Purity along the MEMS frontier: 1/3 + C^2/2 below C = 2/3, else C^2 + (1-C)^2.

    Takes a float or an array of concurrences.
    """
    C = _mems_parameter(C)
    return _float_or_array(
        np.where(C <= 2.0 / 3.0, 1.0 / 3.0 + C * C / 2.0, C * C + (1.0 - C) * (1.0 - C))
    )


def mems_concurrence_bound(P):
    """Largest concurrence compatible with purity P (the inverse MEMS curve).

    Zero for P < 1/3; sqrt(2 (P - 1/3)) up to P = 5/9; thereafter the
    larger root of C^2 + (1 - C)^2 = P.
    """
    P = np.asarray(P, dtype=float)
    if np.any(P < 1.0 / 4.0 - 1e-9) or np.any(P > 1.0 + 1e-9):
        raise DomainError("purity must lie in [1/4, 1]")
    out = np.zeros_like(P)
    mid = (P >= 1.0 / 3.0) & (P <= 5.0 / 9.0)
    out[mid] = np.sqrt(2.0 * (P[mid] - 1.0 / 3.0))
    high = P > 5.0 / 9.0
    out[high] = (1.0 + np.sqrt(2.0 * P[high] - 1.0)) / 2.0
    return _float_or_array(out)


def mems_energy_range(C):
    """Extremal energies reachable from `mems_state(C)` by local unitaries.

    (2/3, 4/3) on the C <= 2/3 branch and (C, 2 - C) above it; an array
    of concurrences gives a pair of arrays.
    """
    C = _mems_parameter(C)
    low = C <= 2.0 / 3.0
    return (_float_or_array(np.where(low, 2.0 / 3.0, C)),
            _float_or_array(np.where(low, 4.0 / 3.0, 2.0 - C)))


def werner_state(r) -> np.ndarray:
    """Werner state r |phi+><phi+| + (1 - r) I/4."""
    r = float(r)
    if not 0.0 <= r <= 1.0:
        raise DomainError("Werner weight must lie in [0, 1]")
    return r * ket_to_dm(BELL_STATES["phi+"]) + (1.0 - r) * np.eye(4, dtype=complex) / 4.0


def separable_min_purity(E):
    """Least purity of a separable two-qubit state at energy E.

    Piecewise quadratic in E, symmetric about E = 1:
    (3/2)E^2 - 2E + 1 on [0, 1/2], (1 + 2(E-1)^2)/4 on [1/2, 3/2],
    and (3/2)E^2 - 4E + 3 on [3/2, 2].
    """
    E = np.asarray(E, dtype=float)
    if np.any(E < -1e-12) or np.any(E > 2.0 + 1e-12):
        raise DomainError("energy must lie in [0, 2]")
    out = np.empty_like(E)
    lo = E <= 0.5
    hi = E >= 1.5
    mid = ~(lo | hi)
    out[lo] = 1.5 * E[lo] ** 2 - 2.0 * E[lo] + 1.0
    out[mid] = 0.25 * (1.0 + 2.0 * (E[mid] - 1.0) ** 2)
    out[hi] = 1.5 * E[hi] ** 2 - 4.0 * E[hi] + 3.0
    return _float_or_array(out)


def pure_circle_concurrence(E):
    """Largest concurrence of a pure state at energy E: the circle (E-1)^2 + C^2 = 1."""
    E = np.asarray(E, dtype=float)
    if np.any(E < -1e-12) or np.any(E > 2.0 + 1e-12):
        raise DomainError("energy must lie in [0, 2]")
    out = np.sqrt(np.clip(1.0 - (E - 1.0) ** 2, 0.0, None))
    return _float_or_array(out)


def rotation(theta, axis) -> np.ndarray:
    """Single-qubit rotation exp(-i theta n.sigma) about a unit axis n."""
    n = np.asarray(axis, dtype=float)
    ns = n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z
    return np.cos(theta) * np.eye(2, dtype=complex) - 1j * np.sin(theta) * ns


def local_unitary(params: LocalUnitaryParams) -> np.ndarray:
    """Product unitary U1 x U2 with U_j acting on qubit j."""
    return np.kron(rotation(params.theta1, params.axis1), rotation(params.theta2, params.axis2))


def apply_local_unitary(rho, params: LocalUnitaryParams) -> np.ndarray:
    """Conjugate a state, checked by `validate_state`, by U1 x U2.

    Local unitaries leave concurrence and purity unchanged; only the
    energy can move.
    """
    rho = validate_state(rho)
    U = local_unitary(params)
    return U @ rho @ U.conj().T


def mems_energy_after_unitary(C, params: LocalUnitaryParams) -> float:
    """Energy of a locally rotated MEMS state, in closed form.

    For rho = mems_state(C) the Bell component contributes no energy
    shift, and the |01><01| component (qubit 1 ground, qubit 2 excited)
    gives

        E' = 1 + w [sin^2(theta1)(1 - n1z^2) - sin^2(theta2)(1 - n2z^2)]

    with weight w = 1/3 for C <= 2/3 and w = 1 - C otherwise: rotating
    the ground qubit raises the energy, rotating the excited one lowers
    it.  The extremes over all axes and angles are mems_energy_range(C).
    """
    C = float(_mems_parameter(C))
    w = 1.0 / 3.0 if C <= 2.0 / 3.0 else 1.0 - C
    n1z = float(params.axis1[2])
    n2z = float(params.axis2[2])
    gain = np.sin(params.theta1) ** 2 * (1.0 - n1z**2)
    loss = np.sin(params.theta2) ** 2 * (1.0 - n2z**2)
    return float(1.0 + w * (gain - loss))
