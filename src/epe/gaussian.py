"""Two-mode Gaussian covariance-matrix algebra.

Covariance matrices are 4x4 real symmetric arrays over the quadratures
X = (x1, p1, x2, p2), normalized so the vacuum is the identity.  Any
such matrix can be brought by local symplectic operations to the
standard form

    [[a, 0, c+, 0],
     [0, a, 0, c-],
     [c+, 0, b, 0],
     [0, c-, 0, b]]

which this module represents as the quadruple (a, b, c_plus, c_minus).
Entanglement is quantified by the logarithmic negativity computed from
the smallest symplectic eigenvalue of the partially transposed state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UnphysicalCovarianceError

PHYSICALITY_TOL = 1e-10
RADICAND_TOL = 1e-10

# symplectic form over (x1, p1, x2, p2)
OMEGA = np.array(
    [
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
    ]
)


@dataclass(frozen=True)
class StandardFormCM:
    """Standard-form covariance matrix parameters (a, b, c+, c-)."""

    a: float
    b: float
    c_plus: float
    c_minus: float

    def __post_init__(self):
        if self.a < 1.0 - PHYSICALITY_TOL or self.b < 1.0 - PHYSICALITY_TOL:
            raise DomainError("diagonal parameters a, b must be >= 1")


@dataclass(frozen=True)
class SymplecticSpectrum:
    """Symplectic eigenvalues nu_- <= nu_+ of a two-mode covariance matrix."""

    nu_minus: float
    nu_plus: float


def expand(sf: StandardFormCM) -> np.ndarray:
    """The 4x4 covariance matrix of a standard-form quadruple."""
    m = np.diag([sf.a, sf.a, sf.b, sf.b])
    m[0, 2] = m[2, 0] = sf.c_plus
    m[1, 3] = m[3, 1] = sf.c_minus
    return m


def seralian(sf: StandardFormCM) -> float:
    """The symplectic invariant Delta = Det alpha + Det beta + 2 Det gamma."""
    return sf.a**2 + sf.b**2 + 2.0 * sf.c_plus * sf.c_minus


def det_sigma(sf: StandardFormCM) -> float:
    """Determinant of the covariance matrix, (ab - c+^2)(ab - c-^2)."""
    ab = sf.a * sf.b
    return (ab - sf.c_plus**2) * (ab - sf.c_minus**2)


def ppt_seralian(sf: StandardFormCM) -> float:
    """Seralian after partial transposition, which flips the sign of Det gamma."""
    return sf.a**2 + sf.b**2 - 2.0 * sf.c_plus * sf.c_minus


def nu_from_invariants(delta, det):
    """(nu_-, nu_+) from 2 nu_+-^2 = Delta -+ sqrt(Delta^2 - 4 Det sigma).

    Accepts scalars or arrays; raises UnphysicalCovarianceError when any
    radicand lies below -RADICAND_TOL.
    """
    radicand = delta**2 - 4.0 * det
    if np.any(radicand < -RADICAND_TOL):
        raise UnphysicalCovarianceError("symplectic invariants admit no real spectrum")
    root = np.sqrt(np.maximum(radicand, 0.0))
    nu_minus = np.sqrt(np.maximum((delta - root) / 2.0, 0.0))
    nu_plus = np.sqrt(np.maximum((delta + root) / 2.0, 0.0))
    return nu_minus, nu_plus


def symplectic_eigenvalues(sf: StandardFormCM) -> SymplecticSpectrum:
    """Symplectic eigenvalues from 2 nu_+-^2 = Delta -+ sqrt(Delta^2 - 4 Det sigma)."""
    nm, npl = nu_from_invariants(seralian(sf), det_sigma(sf))
    return SymplecticSpectrum(nu_minus=nm, nu_plus=npl)


def is_physical(sf: StandardFormCM, tol=PHYSICALITY_TOL) -> bool:
    """Whether sigma + i Omega >= 0, i.e. sigma >= 0 and nu_- >= 1."""
    ab = sf.a * sf.b
    if ab - sf.c_plus**2 < -tol or ab - sf.c_minus**2 < -tol:
        return False
    try:
        spec = symplectic_eigenvalues(sf)
    except UnphysicalCovarianceError:
        return False
    return spec.nu_minus >= 1.0 - tol


def require_physical(sf: StandardFormCM) -> StandardFormCM:
    if not is_physical(sf):
        raise UnphysicalCovarianceError(f"covariance matrix {sf} violates nu_- >= 1")
    return sf


def purity(sf: StandardFormCM) -> float:
    """Purity P = 1/sqrt(Det sigma), clamped at the pure-state value 1."""
    require_physical(sf)
    return min(1.0 / np.sqrt(det_sigma(sf)), 1.0)


def energy(sf: StandardFormCM) -> float:
    """Mean total photon number E = Tr(sigma)/4 - 1 = (a + b)/2 - 1.

    First moments are taken as zero, so this is the least energy of any
    state with this covariance matrix.
    """
    require_physical(sf)
    return (sf.a + sf.b) / 2.0 - 1.0


def local_photon_numbers(sf: StandardFormCM):
    """Mean photon number of each mode, from a = 2 n1 + 1 and b = 2 n2 + 1."""
    return (sf.a - 1.0) / 2.0, (sf.b - 1.0) / 2.0


def thermal_photon_numbers(spectrum: SymplecticSpectrum):
    """Mean photon numbers (nu_+- - 1)/2 of the Williamson thermal factors."""
    return (spectrum.nu_minus - 1.0) / 2.0, (spectrum.nu_plus - 1.0) / 2.0


def ppt_nu_minus(sf: StandardFormCM) -> float:
    """Smallest symplectic eigenvalue of the partially transposed state.

    Values below 1 signal entanglement; the partial transpose preserves
    Det sigma while sending Delta to a^2 + b^2 - 2 c+ c-.
    """
    require_physical(sf)
    nm, _ = nu_from_invariants(ppt_seralian(sf), det_sigma(sf))
    return nm


def is_separable(sf: StandardFormCM, tol=PHYSICALITY_TOL) -> bool:
    """PPT separability test, necessary and sufficient for two-mode states."""
    return ppt_nu_minus(sf) >= 1.0 - tol


def log_negativity(sf: StandardFormCM) -> float:
    """Logarithmic negativity E_N = max(0, -ln nu~_-)."""
    return max(0.0, -float(np.log(ppt_nu_minus(sf))))


def negativity(sf: StandardFormCM) -> float:
    """Negativity N = max(0, (1 - nu~_-)/(2 nu~_-))."""
    nu = ppt_nu_minus(sf)
    return max(0.0, (1.0 - nu) / (2.0 * nu))


@dataclass(frozen=True)
class GaussianEPEPoint:
    """Energy, log-negativity and purity coordinates of a two-mode Gaussian state."""

    energy: float
    log_negativity: float
    purity: float


def epe_point(sf: StandardFormCM) -> GaussianEPEPoint:
    require_physical(sf)
    return GaussianEPEPoint(
        energy=energy(sf), log_negativity=log_negativity(sf), purity=purity(sf)
    )


def two_mode_squeezed_vacuum(E) -> StandardFormCM:
    """Pure two-mode squeezed vacuum with mean photon number E.

    a = b = E + 1 and c+ = -c- = sqrt(a^2 - 1); the maximally entangled
    pure Gaussian state at this energy.
    """
    E = float(E)
    if E < 0.0:
        raise DomainError("energy must be nonnegative")
    a = E + 1.0
    c = np.sqrt(a**2 - 1.0)
    return StandardFormCM(a=a, b=a, c_plus=c, c_minus=-c)


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


def gmems(E, P) -> StandardFormCM:
    """Maximally entangled mixed Gaussian state at fixed energy and purity.

    Symmetric representative a = b = E + 1 with c+ = -c- =
    sqrt((E+1)^2 - 1/P).  Over all states of that energy and purity the
    PPT seralian is bounded by 4(E+1)^2 - 2/P, and this family attains
    the bound; it is entangled exactly when P > 1/(2E + 1).
    """
    E = float(E)
    P = float(P)
    if E <= 0.0:
        raise DomainError("energy must be positive")
    a = E + 1.0
    if not 1.0 / a**2 - 1e-12 <= P <= 1.0 + 1e-12:
        raise DomainError("purity must lie in [1/(E+1)^2, 1]")
    c = np.sqrt(max(a**2 - 1.0 / min(P, 1.0), 0.0))
    return StandardFormCM(a=a, b=a, c_plus=c, c_minus=-c)


def glems(E, P) -> StandardFormCM:
    """Least entangled mixed Gaussian state at fixed energy and purity.

    Symmetric representative a = b = E + 1 whose symplectic spectrum is
    pinned to nu_- = 1, nu_+ = 1/P, so Delta = 1 + 1/P^2 and
    Det sigma = 1/P^2 by construction.  The off-diagonal pair solves

        c+ c- = (1 + 1/P^2 - 2(E+1)^2)/2
        c+^2 + c-^2 = ((E+1)^4 + (c+ c-)^2 - 1/P^2)/(E+1)^2.

    Real solutions exist exactly for P >= 1/(2E + 1); the family stays
    separable up to P = 1/sqrt(2E^2 + 4E + 1).
    """
    E = float(E)
    P = float(P)
    if E <= 0.0:
        raise DomainError("energy must be positive")
    if not 0.0 < P <= 1.0 + 1e-12:
        raise DomainError("purity must lie in (0, 1]")
    P = min(P, 1.0)
    a = E + 1.0
    u = (1.0 + 1.0 / P**2 - 2.0 * a**2) / 2.0
    s = (a**4 + u**2 - 1.0 / P**2) / a**2
    disc = s**2 - 4.0 * u**2
    if s < 0.0 or disc < -1e-10:
        raise DomainError(f"no GLEMS with energy {E} and purity {P}")
    # a double root within tolerance is treated as exactly degenerate
    root = np.sqrt(max(disc, 0.0))
    t_hi = (s + root) / 2.0
    t_lo = max((s - root) / 2.0, 0.0)
    if t_hi > a**2 + 1e-10:
        raise DomainError(f"no positive-semidefinite GLEMS at energy {E} and purity {P}")
    c_plus = np.sqrt(t_hi)
    c_minus = u / c_plus if c_plus > 0.0 else 0.0
    return StandardFormCM(a=a, b=a, c_plus=c_plus, c_minus=c_minus)


def separability_band(E):
    """Purity interval [1/(E+1)^2, 1/(2E+1)) that admits no entangled state.

    Degenerates to (1, 1) at E = 0, where only the vacuum exists.
    """
    E = float(E)
    if E < 0.0:
        raise DomainError("energy must be nonnegative")
    return 1.0 / (E + 1.0) ** 2, 1.0 / (2.0 * E + 1.0)


def band_width(E) -> float:
    """Width of the separability band; largest at the golden-ratio energy."""
    lo, hi = separability_band(E)
    return hi - lo


# --- operations on raw 4x4 covariance matrices ---


def _check_symmetric(cm):
    if np.any(np.abs(cm - cm.swapaxes(-1, -2)) > 1e-12):
        raise UnphysicalCovarianceError("covariance matrix is not symmetric")
    return cm


def cm_validate(cm) -> np.ndarray:
    cm = np.asarray(cm, dtype=float)
    if cm.shape != (4, 4):
        raise UnphysicalCovarianceError(f"expected a 4x4 matrix, got shape {cm.shape}")
    return _check_symmetric(cm)


def cm_symplectic_eigenvalues(cm) -> SymplecticSpectrum:
    """Symplectic eigenvalues of a general covariance matrix, |eig(i Omega sigma)|."""
    cm = cm_validate(cm)
    ev = np.abs(np.linalg.eigvals(1j * OMEGA @ cm).real)
    ev.sort()
    # eigenvalues come in +- pairs
    return SymplecticSpectrum(nu_minus=float(ev[0]), nu_plus=float(ev[2]))


def _physical(cms, tol):
    """Which matrices of an (N, 4, 4) stack satisfy sigma >= 0 and nu_- >= 1 - tol."""
    positive = np.linalg.eigvalsh(cms).min(axis=-1) >= -tol
    nu_minus = np.abs(np.linalg.eigvals(1j * OMEGA @ cms).real).min(axis=-1)
    return positive & (nu_minus >= 1.0 - tol)


def cm_is_physical(cm, tol=PHYSICALITY_TOL) -> bool:
    return bool(_physical(cm_validate(cm)[None], tol)[0])


def cm_energy(cm) -> float:
    """Mean total photon number Tr(sigma)/4 - 1 at zero first moments."""
    return float(np.trace(cm_validate(cm)) / 4.0 - 1.0)


def cm_purity(cm) -> float:
    return 1.0 / np.sqrt(np.linalg.det(cm_validate(cm)))


def cm_ppt_nu_minus(cm) -> float:
    """Smallest PPT symplectic eigenvalue, via the mirror reflection p2 -> -p2."""
    T = np.diag([1.0, 1.0, 1.0, -1.0])
    return cm_symplectic_eigenvalues(T @ cm_validate(cm) @ T).nu_minus


def cm_block_invariants(cm):
    """Local and global invariants (Det alpha, Det beta, Det gamma, Det sigma, Delta)."""
    return _block_invariants(cm_validate(cm))


def _block_invariants(cm):
    da = np.linalg.det(cm[..., :2, :2])
    db = np.linalg.det(cm[..., 2:, 2:])
    dg = np.linalg.det(cm[..., :2, 2:])
    return da, db, dg, np.linalg.det(cm), da + db + 2.0 * dg


def _single_mode_williamson(blocks):
    """Symplectics S with S block S^T = sqrt(det block) I, for a stack of one-mode blocks.

    Returns the (N, 2, 2) symplectics and the (N,) values sqrt(det block).
    """
    d = np.linalg.det(blocks)
    if np.any(d <= 0.0):
        raise UnphysicalCovarianceError("local covariance block is not positive definite")
    w, V = np.linalg.eigh(blocks / np.sqrt(d)[:, None, None])
    if np.any(w <= 0.0):
        raise UnphysicalCovarianceError("local covariance block is not positive definite")
    return (V * (1.0 / np.sqrt(w))[:, None, :]) @ V.swapaxes(-1, -2), np.sqrt(d)


def reduce_to_standard_form(cm):
    """Bring physical covariance matrices to standard form by local symplectics.

    Each local block is Williamson-diagonalized to a multiple of the
    identity by a single-mode squeeze-and-rotate, then residual phase
    rotations diagonalize the off-diagonal block.  The signs are
    canonicalized to c+ >= |c-| with c+ >= 0 using pi/2 and pi local
    rotations, which preserve the diagonal blocks.

    One 4x4 matrix gives a StandardFormCM.  An (N, 4, 4) stack gives an
    (N, 4) array of (a, b, c+, c-) rows, each bit-identical to the
    reduction of its matrix alone; it raises if any matrix is not
    symmetric or not physical.
    """
    cms = np.asarray(cm, dtype=float)
    if cms.shape == (4, 4):
        a, b, c_plus, c_minus = reduce_to_standard_form(cms[None])[0].tolist()
        return StandardFormCM(a=a, b=b, c_plus=c_plus, c_minus=c_minus)
    if cms.ndim != 3 or cms.shape[1:] != (4, 4):
        raise UnphysicalCovarianceError(
            f"expected a 4x4 matrix or an (N, 4, 4) stack, got shape {cms.shape}"
        )
    _check_symmetric(cms)
    if not np.all(_physical(cms, PHYSICALITY_TOL)):
        raise UnphysicalCovarianceError("covariance matrix violates nu_- >= 1")
    S1, a = _single_mode_williamson(cms[:, :2, :2])
    S2, b = _single_mode_williamson(cms[:, 2:, 2:])
    U, sv, Vt = np.linalg.svd(S1 @ cms[:, :2, 2:] @ S2.swapaxes(-1, -2))
    # restrict to proper rotations; determinant signs move into the singular values
    c_plus = sv[:, 0]
    c_minus = np.linalg.det(U) * sv[:, 1] * np.linalg.det(Vt)
    # a pi/2 rotation on both modes swaps the two entries
    swap = np.abs(c_minus) > np.abs(c_plus)
    c_plus, c_minus = np.where(swap, c_minus, c_plus), np.where(swap, c_plus, c_minus)
    # a pi rotation on one mode flips both signs
    sign = np.where(c_plus < 0.0, -1.0, 1.0)
    params = np.stack([a, b, sign * c_plus, sign * c_minus], axis=-1)

    _, _, _, ds, delta = _block_invariants(cms)
    ab = a * b
    det_sf = (ab - params[:, 2] ** 2) * (ab - params[:, 3] ** 2)
    seralian_sf = a**2 + b**2 + 2.0 * params[:, 2] * params[:, 3]
    if np.any(
        (np.abs(det_sf - ds) > 1e-9 * np.maximum(1.0, np.abs(ds)))
        | (np.abs(seralian_sf - delta) > 1e-9 * np.maximum(1.0, np.abs(delta)))
    ):
        raise RuntimeError("standard-form reduction failed to preserve invariants")
    return params
