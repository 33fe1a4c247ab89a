"""Two-qubit state algebra: entanglement, mixedness and energy measures.

States are plain 4x4 complex numpy arrays in the product basis
|00>, |01>, |10>, |11> with the first label belonging to qubit 1.

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

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidStateError

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# mean excitation number operator, basis |00>,|01>,|10>,|11>
EXCITATION_NUMBER = np.diag([0.0, 1.0, 1.0, 2.0])

_YY = np.kron(SIGMA_Y, SIGMA_Y)

BELL_STATES = {
    "phi+": np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2),
    "phi-": np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2),
    "psi+": np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2),
    "psi-": np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2),
}


@dataclass(frozen=True)
class EPEPoint:
    """One point of an entanglement-purity-energy phase diagram."""

    energy: float
    entanglement: float
    purity: float


@dataclass(frozen=True)
class LocalUnitaryParams:
    """Rotation angles and unit axes for a product unitary U1 x U2.

    U_j = exp(-i theta_j n_j . sigma) acts on qubit j.  Axes must be
    unit vectors to within 1e-12.
    """

    theta1: float
    theta2: float
    axis1: tuple
    axis2: tuple

    def __post_init__(self):
        for name, axis in (("axis1", self.axis1), ("axis2", self.axis2)):
            v = np.asarray(axis, dtype=float)
            if v.shape != (3,) or abs(np.linalg.norm(v) - 1.0) > 1e-12:
                raise DomainError(f"{name} must be a unit 3-vector")


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


def schmidt_coefficients(psi):
    """Schmidt coefficients (a, b), a >= b, of a normalized two-qubit ket.

    Singular values of the 2x2 amplitude matrix; a^2 + b^2 = 1 and the
    concurrence of the pure state is 2ab.
    """
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (4,) or abs(np.linalg.norm(psi) - 1.0) > 1e-12:
        raise InvalidStateError("expected a normalized 4-component state vector")
    sv = np.linalg.svd(psi.reshape(2, 2), compute_uv=False)
    return float(sv[0]), float(sv[1])


def pure_concurrence(psi) -> float:
    """Concurrence 2ab of a pure state from its Schmidt coefficients."""
    a, b = schmidt_coefficients(psi)
    return min(2.0 * a * b, 1.0)


def concurrence(rho, check=True):
    """Concurrence C(rho) = max(0, mu_1 - mu_2 - mu_3 - mu_4).

    The mu_j are the decreasingly ordered square roots of the
    eigenvalues of R = rho (sy x sy) rho* (sy x sy).  Tiny negative
    eigenvalues from roundoff are clamped to zero before the square
    root, and the result is clamped to [0, 1].  A (..., 4, 4) stack
    gives an array of its leading shape; one 4x4 matrix gives a float.
    """
    rho = validate_state(rho) if check else np.asarray(rho, dtype=complex)
    R = rho @ _YY @ rho.conj() @ _YY
    mu = np.sqrt(np.clip(np.linalg.eigvals(R).real, 0.0, None))
    mu.sort(axis=-1)
    c = np.clip(mu[..., 3] - mu[..., 2] - mu[..., 1] - mu[..., 0], 0.0, 1.0)
    return float(c) if c.ndim == 0 else c


def tangle(rho, check=True) -> float:
    """Tangle, the squared concurrence."""
    return concurrence(rho, check=check) ** 2


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
    return float(out) if out.ndim == 0 else out


def entanglement_of_formation(rho, check=True) -> float:
    """Entanglement of formation, a monotone function of the concurrence."""
    return eof_from_concurrence(concurrence(rho, check=check))


def partial_transpose(rho) -> np.ndarray:
    """Partial transpose with respect to the second qubit.

    The trace norm is independent of which subsystem is transposed, so
    the derived entanglement measures do not depend on this choice.
    """
    rho = np.asarray(rho, dtype=complex)
    return rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)


def negativity(rho, check=True) -> float:
    """Negativity N = (||rho^Gamma||_1 - 1)/2, clamped at zero."""
    rho = validate_state(rho) if check else np.asarray(rho, dtype=complex)
    trace_norm = np.abs(np.linalg.eigvalsh(partial_transpose(rho))).sum()
    return float(max((trace_norm - 1.0) / 2.0, 0.0))


def log_negativity(rho, check=True) -> float:
    """Logarithmic negativity L_N = log2 ||rho^Gamma||_1, clamped at zero."""
    rho = validate_state(rho) if check else np.asarray(rho, dtype=complex)
    trace_norm = np.abs(np.linalg.eigvalsh(partial_transpose(rho))).sum()
    return float(max(np.log2(trace_norm), 0.0))


def purity(rho, check=True) -> float:
    """Purity Tr[rho^2], between 1/4 (maximally mixed) and 1 (pure).

    Clamped to [0, 1]; roundoff on near-pure states can otherwise
    overshoot 1 by a few ulp.
    """
    rho = validate_state(rho) if check else np.asarray(rho, dtype=complex)
    return float(min(max(np.einsum("ij,ji->", rho, rho).real, 0.0), 1.0))


def energy(rho, check=True) -> float:
    """Mean excitation number, from 0 for |00> to 2 for |11>."""
    rho = validate_state(rho) if check else np.asarray(rho, dtype=complex)
    return float(np.einsum("ii,ii->", rho, EXCITATION_NUMBER.astype(complex)).real)


def mems_state(C) -> np.ndarray:
    """Maximally entangled mixed state with concurrence C.

    For C <= 2/3 the state mixes the Bell projector |phi+><phi+| with
    weight C, |01><01| with weight 1/3 and |00><00|, |11><11| with
    weight 1/3 - C/2 each; for C >= 2/3 it mixes the Bell projector
    with |01><01| at weights C and 1 - C.  Both branches coincide at
    C = 2/3.  The result has Tr[N rho] = 1, i.e. one mean excitation.
    """
    C = float(C)
    if not 0.0 <= C <= 1.0:
        raise DomainError("concurrence parameter must lie in [0, 1]")
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


def mems_purity(C) -> float:
    """Purity along the MEMS frontier: 1/3 + C^2/2 below C = 2/3, else C^2 + (1-C)^2."""
    C = float(C)
    if not 0.0 <= C <= 1.0:
        raise DomainError("concurrence parameter must lie in [0, 1]")
    if C <= 2.0 / 3.0:
        return 1.0 / 3.0 + C**2 / 2.0
    return C**2 + (1.0 - C) ** 2


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
    return float(out) if out.ndim == 0 else out


def mems_energy_range(C):
    """Extremal energies reachable from `mems_state(C)` by local unitaries.

    (2/3, 4/3) on the C <= 2/3 branch and (C, 2 - C) above it.
    """
    C = float(C)
    if not 0.0 <= C <= 1.0:
        raise DomainError("concurrence parameter must lie in [0, 1]")
    if C <= 2.0 / 3.0:
        return 2.0 / 3.0, 4.0 / 3.0
    return C, 2.0 - C


def werner_state(r, bell="phi+") -> np.ndarray:
    """Werner state r |Psi><Psi| + (1 - r) I/4 for a chosen Bell state."""
    r = float(r)
    if not 0.0 <= r <= 1.0:
        raise DomainError("Werner weight must lie in [0, 1]")
    if bell not in BELL_STATES:
        raise DomainError(f"unknown Bell state {bell!r}")
    return r * ket_to_dm(BELL_STATES[bell]) + (1.0 - r) * np.eye(4, dtype=complex) / 4.0


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
    return float(out) if out.ndim == 0 else out


def pure_circle_concurrence(E):
    """Largest concurrence of a pure state at energy E: the circle (E-1)^2 + C^2 = 1."""
    E = np.asarray(E, dtype=float)
    if np.any(E < -1e-12) or np.any(E > 2.0 + 1e-12):
        raise DomainError("energy must lie in [0, 2]")
    out = np.sqrt(np.clip(1.0 - (E - 1.0) ** 2, 0.0, None))
    return float(out) if out.ndim == 0 else out


def pure_state_epe_bound(E, C) -> bool:
    """Whether (E, C) lies inside the pure-state disc (E-1)^2 + C^2 <= 1."""
    E = float(E)
    C = float(C)
    if not 0.0 <= E <= 2.0 or not 0.0 <= C <= 1.0:
        raise DomainError("expected E in [0, 2] and C in [0, 1]")
    return (E - 1.0) ** 2 + C**2 <= 1.0 + 1e-12


def rotation(theta, axis) -> np.ndarray:
    """Single-qubit rotation exp(-i theta n.sigma) about a unit axis n."""
    n = np.asarray(axis, dtype=float)
    ns = n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z
    return np.cos(theta) * np.eye(2, dtype=complex) - 1j * np.sin(theta) * ns


def local_unitary(params: LocalUnitaryParams) -> np.ndarray:
    """Product unitary U1 x U2 with U_j acting on qubit j."""
    return np.kron(rotation(params.theta1, params.axis1), rotation(params.theta2, params.axis2))


def apply_local_unitary(rho, params: LocalUnitaryParams, check=True) -> np.ndarray:
    """Conjugate a state by U1 x U2.

    Local unitaries leave concurrence and purity unchanged; only the
    energy can move.
    """
    rho = validate_state(rho) if check else np.asarray(rho, dtype=complex)
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
    C = float(C)
    if not 0.0 <= C <= 1.0:
        raise DomainError("concurrence parameter must lie in [0, 1]")
    w = 1.0 / 3.0 if C <= 2.0 / 3.0 else 1.0 - C
    n1z = float(params.axis1[2])
    n2z = float(params.axis2[2])
    gain = np.sin(params.theta1) ** 2 * (1.0 - n1z**2)
    loss = np.sin(params.theta2) ** 2 * (1.0 - n2z**2)
    return float(1.0 + w * (gain - loss))


_MEASURES = {
    "concurrence": concurrence,
    "tangle": tangle,
    "eof": entanglement_of_formation,
    "negativity": negativity,
    "logneg": log_negativity,
}


def epe_point(rho, measure="concurrence") -> EPEPoint:
    """Energy, entanglement and purity coordinates of a state."""
    if measure not in _MEASURES:
        raise DomainError(f"unknown entanglement measure {measure!r}")
    rho = validate_state(rho)
    return EPEPoint(
        energy=energy(rho, check=False),
        entanglement=_MEASURES[measure](rho, check=False),
        purity=purity(rho, check=False),
    )
