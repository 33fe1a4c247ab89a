"""Reference routes and fixtures the tests hold `epe` to.

Nothing in `epe` calls these: they stay apart from the code that
produces results.  The `gaussian` oracles work on raw 4x4 covariance
matrices, with symplectic eigenvalues from |eig(i Omega sigma)| and
invariants from LAPACK determinants, independently of the closed-form
standard-form reduction and its measures (Serafini, Illuminati & De
Siena, J. Phys. B 37, L21 (2004)); the standard-form fixtures build the
matrices and states they are given.  The `qubit` oracles give pure-state
concurrence from the Schmidt coefficients, the pure-state disc test and
the EPE coordinates of one state at a time.  The `jc` oracles check
the dense amplitude table: its sector norms, which evolution conserves,
the input entropy from its singular values, and the squeezed series in
both trig conventions against its evolution.
`random_state_with_purity` and `random_standard_form_at` draw the
conditioned states of the MEMS and GMEMS extremality checks,
`sampled_covariances` the matrices of the
sampler's accepted candidates, and `ginibre_states` the Hilbert-Schmidt
states of the full Ginibre matrix that the sampler's triangular factors
must match in distribution.  Oracles
may import private runtime helpers (`gaussian._check_symmetric`,
`gaussian._block_invariants`), but none is built from the code it checks.
"""

from dataclasses import dataclass

import numpy as np

from epe.errors import ConfigurationError, DomainError, InvalidStateError, UnphysicalCovarianceError
from epe.gaussian import (
    PHYSICALITY_TOL,
    StandardFormCM,
    _block_invariants,
    _bool_or_array,
    _check_symmetric,
    is_physical,
    ppt_nu_minus,
)
from epe.jc import TwoModeSqueezed, build_input, evolve, reduce_to_qubits, squeezed_series_matrix
from epe.qubit import (
    concurrence,
    energy,
    entanglement_of_formation,
    log_negativity,
    negativity,
    purity,
    tangle,
    validate_state,
)
from epe.sampling import (
    QUBIT_WORDS,
    _accepted_candidates,
    candidate_covariances,
    stream_words,
    uniforms,
)

# --- gaussian: standard-form fixtures ---

# symplectic form over (x1, p1, x2, p2)
OMEGA = np.array(
    [
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
    ]
)


def sampled_covariances(seed, start, count, window):
    """The (count, 4, 4) covariance matrices of the candidates the sampler
    accepts for indices [start, start + count): the states whose records
    `records_chunk` computes without them."""
    return candidate_covariances(_accepted_candidates(seed, start, count, window), window)


def expand(sf: StandardFormCM) -> np.ndarray:
    """The 4x4 covariance matrix of a standard-form quadruple."""
    m = np.diag([sf.a, sf.a, sf.b, sf.b])
    m[0, 2] = m[2, 0] = sf.c_plus
    m[1, 3] = m[3, 1] = sf.c_minus
    return m


def local_photon_numbers(sf: StandardFormCM):
    """Mean photon number of each mode, from a = 2 n1 + 1 and b = 2 n2 + 1."""
    return (sf.a - 1.0) / 2.0, (sf.b - 1.0) / 2.0


def is_separable(sf: StandardFormCM, tol=PHYSICALITY_TOL):
    """PPT separability test, necessary and sufficient for two-mode states."""
    return _bool_or_array(np.asarray(ppt_nu_minus(sf)) >= 1.0 - tol)


def thermal_product(nbar1, nbar2) -> StandardFormCM:
    """Tensor product of two thermal states with the given mean photon numbers."""
    nbar1 = float(nbar1)
    nbar2 = float(nbar2)
    if nbar1 < 0.0 or nbar2 < 0.0:
        raise DomainError("mean photon numbers must be nonnegative")
    return StandardFormCM(a=2.0 * nbar1 + 1.0, b=2.0 * nbar2 + 1.0, c_plus=0.0, c_minus=0.0)


def maximally_mixed(E) -> StandardFormCM:
    """The most mixed state at energy E, with covariance (E + 1) I."""
    E = float(E)
    if E < 0.0:
        raise DomainError("energy must be nonnegative")
    return StandardFormCM(a=E + 1.0, b=E + 1.0, c_plus=0.0, c_minus=0.0)


def local_squeeze(sf: StandardFormCM, r) -> np.ndarray:
    """Apply diag(e^r, e^-r, e^-r, e^r) from both sides.

    This is a product of single-mode squeezers, so purity and all
    symplectic and PPT invariants are unchanged; only the energy moves.
    For a symmetric pure input the new energy is a cosh(2r) - 1.
    """
    S = np.diag([np.exp(r), np.exp(-r), np.exp(-r), np.exp(r)])
    return S @ expand(sf) @ S.T


# --- gaussian: raw 4x4 covariance matrices ---


def cm_validate(cm) -> np.ndarray:
    cm = np.asarray(cm, dtype=float)
    if cm.shape != (4, 4):
        raise UnphysicalCovarianceError(f"expected a 4x4 matrix, got shape {cm.shape}")
    return _check_symmetric(cm)


def cm_symplectic_eigenvalues(cm):
    """The pair (nu_-, nu_+) of a general covariance matrix, from |eig(i Omega sigma)|."""
    cm = cm_validate(cm)
    ev = np.abs(np.linalg.eigvals(1j * OMEGA @ cm).real)
    ev.sort()
    # eigenvalues come in +- pairs
    return float(ev[0]), float(ev[2])


def cm_is_physical(cm, tol=PHYSICALITY_TOL) -> bool:
    """Whether sigma >= 0 and nu_- >= 1 - tol, with nu_- from the complex
    eigenvalues of i Omega sigma.

    This is the oracle for the check `reduce_to_standard_form` makes on
    its reduced rows.
    """
    cm = cm_validate(cm)
    if np.linalg.eigvalsh(cm).min() < -tol:
        return False
    return cm_symplectic_eigenvalues(cm)[0] >= 1.0 - tol


def cm_energy(cm) -> float:
    """Mean total photon number Tr(sigma)/4 - 1 at zero first moments."""
    return float(np.trace(cm_validate(cm)) / 4.0 - 1.0)


def cm_purity(cm) -> float:
    return 1.0 / np.sqrt(np.linalg.det(cm_validate(cm)))


def cm_ppt_nu_minus(cm) -> float:
    """Smallest PPT symplectic eigenvalue, via the mirror reflection p2 -> -p2."""
    T = np.diag([1.0, 1.0, 1.0, -1.0])
    return cm_symplectic_eigenvalues(T @ cm_validate(cm) @ T)[0]


def cm_block_invariants(cm):
    """Local and global invariants (Det alpha, Det beta, Det gamma, Det sigma, Delta)."""
    return _block_invariants(cm_validate(cm))


# --- jc: the dense amplitude table ---


def sector_norms(amps) -> np.ndarray:
    """Probability in each total-excitation sector n1 + n2 + e1 + e2.

    The evolution is block diagonal over these sectors, so the vector
    is a constant of motion.
    """
    dim = amps.shape[0]
    n1, n2, s1, s2 = np.ogrid[0:dim, 0:dim, 0:2, 0:2]
    total = (n1 + n2 + s1 + s2).ravel()
    probs = np.abs(amps).ravel() ** 2
    out = np.zeros(2 * dim + 1)
    np.add.at(out, total, probs)
    return out


def schmidt_entropy(amps) -> float:
    """Entropy of one mode of a pure field-only state, via singular values.

    Numerical cross-check for input_entropy; valid while the atoms are
    still in the ground level.
    """
    field = amps[:, :, 0, 0]
    sv = np.linalg.svd(field, compute_uv=False)
    p = sv**2
    p = p[p > 1e-300]
    return float(-(p * np.log(p)).sum())


def squeezed_convention_deviation(gamma, times):
    """Max deviation of both trig conventions from the numerical evolution.

    Returns a dict {"double": dev, "half": dev} of entrywise maxima over
    the given times, at the default truncation.  The double-angle series
    reproduces the numerics to roundoff; the halved one, the same series
    at lambda*t / 2 (exact, so every phase is sqrt(n) lt), does not.
    """
    state0 = build_input(TwoModeSqueezed(gamma=gamma))
    devs = {"double": 0.0, "half": 0.0}
    for t in np.atleast_1d(times):
        rho_num = reduce_to_qubits(evolve(state0, t))
        for conv, lt in (("double", t), ("half", t / 2.0)):
            rho_an = squeezed_series_matrix(gamma, lt, state0.shape[0] - 1)
            devs[conv] = max(devs[conv], float(np.abs(rho_num - rho_an).max()))
    return devs


# --- qubit: pure states and single EPE points ---


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


def pure_state_epe_bound(E, C) -> bool:
    """Whether (E, C) lies inside the pure-state disc (E-1)^2 + C^2 <= 1."""
    E = float(E)
    C = float(C)
    if not 0.0 <= E <= 2.0 or not 0.0 <= C <= 1.0:
        raise DomainError("expected E in [0, 2] and C in [0, 1]")
    return (E - 1.0) ** 2 + C**2 <= 1.0 + 1e-12


@dataclass(frozen=True)
class EPEPoint:
    """One point of an entanglement-purity-energy phase diagram."""

    energy: float
    entanglement: float
    purity: float


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
        entanglement=_MEASURES[measure](rho),
        purity=purity(rho, check=False),
    )


# --- sampling: the Ginibre draw and states conditioned on (E, P) or P ---


def ginibre_states(seed, start, count, rank):
    """The (count, 4, 4) states rho = G G^dag / Tr(G G^dag) of indices
    [start, start + count) of the qubit stream, with G the first `rank`
    columns of a 4 x 4 matrix of complex standard normals by Box-Muller:
    radii sqrt(-2 log(1 - u)) of words 0-15 and angles 2 pi u of words
    16-31, so its real and imaginary parts are independent standard normals."""
    u = uniforms(stream_words(seed, "qubit", start, count, QUBIT_WORDS))
    r = np.sqrt(-2.0 * np.log1p(-u[:, :16]))
    theta = 2.0 * np.pi * u[:, 16:]
    G = (r * np.cos(theta) + 1j * r * np.sin(theta)).reshape(count, 4, 4)[:, :, :rank]
    M = G @ G.conj().transpose(0, 2, 1)
    return M / np.trace(M, axis1=1, axis2=2).real[:, None, None]




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


def random_standard_form_at(E, P, rng) -> StandardFormCM:
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
        c_plus = np.sqrt(t_hi)
        c_minus = u / c_plus if c_plus > 0.0 else 0.0
        if rng.uniform() < 0.5:
            c_plus, c_minus = -c_plus, -c_minus
        sf = StandardFormCM(a=a, b=b, c_plus=c_plus, c_minus=c_minus)
        if is_physical(sf):
            return sf
    raise ConfigurationError(f"could not sample a CM at E={E}, P={P}")
