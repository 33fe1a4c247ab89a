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
The standard-form measures and families also take arrays: a stack gives
an array, each element bit-identical to the call on that element alone.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, InvariantViolation, UnphysicalCovarianceError
from .qubit import _float_or_array

PHYSICALITY_TOL = 1e-10
RADICAND_TOL = 1e-10

# Scale-aware checks.  A covariance sigma = S^T diag(nu) S is known only to the
# roundoff of that product (the sampler's closed-form candidates take fewer
# roundings and are exactly symmetric), so each check of a raw matrix allows
# max(its absolute tolerance, c eps scale), with the scale built from the
# diagonal (|sigma_ij| <= sqrt(sigma_ii sigma_jj) for sigma >= 0) and c from
# these bounds:
EPS = float(np.finfo(float).eps)
# each entry is a 4-term inner product with one more product by nu, so
# |sigma_ij - (S^T D S)_ij| <= gamma_5 sqrt(sigma_ii sigma_jj) and the two
# triangles differ by at most 2 gamma_5 ~ 5 eps times that; 6 covers the
# O(eps) factors of the bound and the rounding of the tolerance
SYMMETRY_ROUNDOFF = 6.0
# with t = sum_i sigma_ii >= ||sigma||_2, Weyl: the construction moves the
# eigenvalues by at most gamma_5 t ~ 2.5 eps t, and LAPACK's symmetric
# eigensolver by p(n) eps ||sigma||_2, p(n) taken as n = 4
EIGEN_ROUNDOFF = 7.0
# roundings along either route to Delta and Det sigma (the blocks'
# determinants, or the reduction and its standard-form formulas), each
# relative to the invariant's sum of absolute terms: at most
# 2 (sqrt(s11 s22) + sqrt(s33 s44))^2 for Delta and 24 s11 s22 s33 s44 for
# Det sigma, writing s_ii = |sigma_ii|
INVARIANT_ROUNDINGS = 16.0
# a standard-form row carries roundoff that grows with its scale (the TMSV at
# E = 1e4 has ab - c^2 = 1 from 1e8-sized products): with entries within eps
# of themselves, ab - c^2 and Delta are known to 5 eps s (2 eps per product
# term, 3 eps s for the sum), s their sum of absolute terms, nu_-^2 =
# (Delta - root) / 2 to about 2 eps s more, and 1 - nu_- ~ (1 - nu_-^2) / 2
# to 3.5 eps s; `is_physical` allows 5 eps s in both of its checks
ROW_ROUNDOFF = 5.0


class StandardFormCM:
    """Standard-form parameters (a, b, c+, c-): floats, or equal-shape arrays."""

    def __init__(self, a, b, c_plus, c_minus):
        if np.any(a < 1.0 - PHYSICALITY_TOL) or np.any(b < 1.0 - PHYSICALITY_TOL):
            raise DomainError("diagonal parameters a, b must be >= 1")
        self.a, self.b, self.c_plus, self.c_minus = a, b, c_plus, c_minus

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.a, self.b, self.c_plus, self.c_minus) == (
            other.a, other.b, other.c_plus, other.c_minus)

    def __repr__(self):
        return (f"StandardFormCM(a={self.a!r}, b={self.b!r}, c_plus={self.c_plus!r}, "
                f"c_minus={self.c_minus!r})")


def _standard_form(a, b, c_plus, c_minus) -> StandardFormCM:
    """A StandardFormCM of the broadcast fields: floats for scalar inputs."""
    fields = (np.array(x, dtype=float) for x in np.broadcast_arrays(a, b, c_plus, c_minus))
    return StandardFormCM(*map(_float_or_array, fields))


def _bool_or_array(x):
    return bool(x) if np.ndim(x) == 0 else x


def seralian(sf: StandardFormCM):
    """The symplectic invariant Delta = Det alpha + Det beta + 2 Det gamma."""
    return _float_or_array(sf.a * sf.a + sf.b * sf.b + 2.0 * sf.c_plus * sf.c_minus)


def det_sigma(sf: StandardFormCM):
    """Determinant of the covariance matrix, (ab - c+^2)(ab - c-^2)."""
    ab = sf.a * sf.b
    return _float_or_array((ab - sf.c_plus * sf.c_plus) * (ab - sf.c_minus * sf.c_minus))


def ppt_seralian(sf: StandardFormCM):
    """Seralian after partial transposition, which flips the sign of Det gamma."""
    return _float_or_array(sf.a * sf.a + sf.b * sf.b - 2.0 * sf.c_plus * sf.c_minus)


def nu_from_invariants(delta, det, radicand=None):
    """(nu_-, nu_+) from 2 nu_+-^2 = Delta -+ sqrt(Delta^2 - 4 Det sigma).

    Accepts scalars or arrays; `radicand`, when given, is a form of
    Delta^2 - 4 Det sigma already computed by the caller.  Raises
    UnphysicalCovarianceError when any radicand lies below -RADICAND_TOL.
    """
    if radicand is None:
        radicand = delta * delta - 4.0 * det
    if np.any(radicand < -RADICAND_TOL):
        raise UnphysicalCovarianceError("symplectic invariants admit no real spectrum")
    root = np.sqrt(np.maximum(radicand, 0.0))
    nu_minus = np.sqrt(np.maximum((delta - root) / 2.0, 0.0))
    nu_plus = np.sqrt(np.maximum((delta + root) / 2.0, 0.0))
    return nu_minus, nu_plus


def _radicand(sf: StandardFormCM):
    """Delta^2 - 4 Det sigma, expanded as (a^2 - b^2)^2 + 4 (a c+ + b c-)(a c- + b c+).

    The expansion is exactly 0 for the two-mode squeezed vacuum: Delta^2 -
    4 Det sigma cancels to roundoff there and put nu_- of pure states about
    1e-8 below 1.
    """
    a, b, cp, cm = sf.a, sf.b, sf.c_plus, sf.c_minus
    d = a * a - b * b
    return d * d + 4.0 * (a * cp + b * cm) * (a * cm + b * cp)


def symplectic_eigenvalues(sf: StandardFormCM):
    """The pair (nu_-, nu_+) from 2 nu_+-^2 = Delta -+ sqrt(Delta^2 - 4 Det sigma):
    floats for one row, arrays for a stack."""
    nm, npl = nu_from_invariants(seralian(sf), det_sigma(sf), _radicand(sf))
    return _float_or_array(nm), _float_or_array(npl)


def is_physical(sf: StandardFormCM):
    """Whether sigma + i Omega >= 0, i.e. sigma >= 0 and nu_- >= 1, per row.

    Each condition allows the larger of PHYSICALITY_TOL and the row's own
    roundoff (ROW_ROUNDOFF).
    """
    a, b, cp, cm = sf.a, sf.b, sf.c_plus, sf.c_minus
    ab = a * b
    radicand = _radicand(sf)
    ok = radicand >= -RADICAND_TOL
    for c in (cp, cm):
        ok &= ab - c * c >= -np.maximum(PHYSICALITY_TOL, ROW_ROUNDOFF * EPS * (ab + c * c))
    nu_minus, _ = nu_from_invariants(seralian(sf), det_sigma(sf), np.maximum(radicand, 0.0))
    scale = a * a + b * b + 2.0 * np.abs(cp * cm)
    ok &= 1.0 - nu_minus <= np.maximum(PHYSICALITY_TOL, ROW_ROUNDOFF * EPS * scale)
    return _bool_or_array(ok)


def require_physical(sf: StandardFormCM) -> StandardFormCM:
    """`sf`, or UnphysicalCovarianceError naming its first row that fails `is_physical`."""
    ok = np.asarray(is_physical(sf))
    if not ok.all():
        i = int(np.argmin(ok))  # a flat index for stacks of more than one axis
        rows = np.stack(np.broadcast_arrays(sf.a, sf.b, sf.c_plus, sf.c_minus), -1)
        row = rows.reshape(-1, 4)[i]
        raise UnphysicalCovarianceError(
            f"standard-form row{f' {i}' if ok.ndim else ''} (a, b, c+, c-) = "
            f"{tuple(row.tolist())} is not physical (needs a b >= c+-^2 and nu_- >= 1)"
        )
    return sf


def purity(sf: StandardFormCM, check=True):
    """Purity P = 1/sqrt(Det sigma), clamped at the pure-state value 1."""
    if check:
        require_physical(sf)
    return _float_or_array(np.minimum(1.0 / np.sqrt(det_sigma(sf)), 1.0))


def energy(sf: StandardFormCM, check=True):
    """Mean total photon number E = Tr(sigma)/4 - 1 = (a + b)/2 - 1.

    First moments are taken as zero, so this is the least energy of any
    state with this covariance matrix.
    """
    if check:
        require_physical(sf)
    return _float_or_array((sf.a + sf.b) / 2.0 - 1.0)


def ppt_nu_minus_from(ppt_delta, det, root=None):
    """nu~_- = sqrt(Det sigma) / nu~_+ of a partial transpose with seralian
    Delta~, 2 nu~_+^2 = Delta~ + root: none of the cancellation of nu~_-^2 =
    (Delta~ - root) / 2.  A caller with both Delta~ -+ 2 sqrt(Det sigma) as
    sums of non-negative terms passes root as the product of their square
    roots; by default `nu_from_invariants` takes root = sqrt(Delta~^2 -
    4 Det sigma), raising where the radicand is below -RADICAND_TOL."""
    if root is None:
        _, nu_plus = nu_from_invariants(ppt_delta, det)
    else:
        nu_plus = np.sqrt((ppt_delta + root) / 2.0)
    return np.sqrt(det) / nu_plus


def ppt_nu_minus(sf: StandardFormCM, check=True):
    """Smallest symplectic eigenvalue nu~_- of the partially transposed state.

    Values below 1 signal entanglement; the partial transpose keeps Det
    sigma and sends Delta to Delta~ = a^2 + b^2 - 2 c+ c-, the pair
    `ppt_nu_minus_from` takes.  `check=False` skips `require_physical`, as
    for `energy`, `purity` and the negativities, for checked rows.
    """
    if check:
        require_physical(sf)
    return _float_or_array(ppt_nu_minus_from(ppt_seralian(sf), det_sigma(sf)))


def log_negativity_from(nu):
    """E_N = max(0, -ln nu~_-) of PPT eigenvalues; adding +0.0 makes nu~_- = 1 give +0.0."""
    return np.maximum(0.0, -np.log(nu)) + 0.0


def negativity_from(nu):
    """N = max(0, (1 - nu~_-)/(2 nu~_-)) of PPT eigenvalues nu~_-."""
    return np.maximum(0.0, (1.0 - nu) / (2.0 * nu))


def log_negativity(sf: StandardFormCM, check=True):
    """Logarithmic negativity E_N = max(0, -ln nu~_-), +0.0 where nu~_- = 1."""
    return _float_or_array(log_negativity_from(ppt_nu_minus(sf, check)))


def negativity(sf: StandardFormCM, check=True):
    """Negativity N = max(0, (1 - nu~_-)/(2 nu~_-))."""
    return _float_or_array(negativity_from(ppt_nu_minus(sf, check)))


def two_mode_squeezed_vacuum(E) -> StandardFormCM:
    """Pure two-mode squeezed vacuum with mean photon number E.

    a = b = E + 1 and c+ = -c- = sqrt(a^2 - 1); the maximally entangled
    pure Gaussian state at this energy, whose log-negativity arccosh(E + 1)
    is the pure-state frontier.
    """
    E = np.asarray(E, dtype=float)
    if np.any(E < 0.0):
        raise DomainError("energy must be nonnegative")
    a = E + 1.0
    c = np.sqrt(a * a - 1.0)
    return _standard_form(a, a, c, -c)


def gmems(E, P) -> StandardFormCM:
    """Maximally entangled mixed Gaussian state at fixed energy and purity.

    Symmetric representative a = b = E + 1 with c+ = -c- =
    sqrt((E+1)^2 - 1/P).  Over all states of that energy and purity the
    PPT seralian is bounded by 4(E+1)^2 - 2/P, and this family attains
    the bound; it is entangled exactly when P > 1/(2E + 1), and its
    log-negativity is ln(P (A + sqrt(A^2 - 1/P))) with A = E + 1.
    """
    E = np.asarray(E, dtype=float)
    P = np.asarray(P, dtype=float)
    if np.any(E <= 0.0):
        raise DomainError("energy must be positive")
    a = E + 1.0
    if not np.all((1.0 / (a * a) - 1e-12 <= P) & (P <= 1.0 + 1e-12)):
        raise DomainError("purity must lie in [1/(E+1)^2, 1]")
    c = np.sqrt(np.maximum(a * a - 1.0 / np.minimum(P, 1.0), 0.0))
    return _standard_form(a, a, c, -c)


def glems(E, P) -> StandardFormCM:
    """Least entangled mixed Gaussian state at fixed energy and purity.

    Symmetric representative a = b = E + 1 whose symplectic spectrum is
    pinned to nu_- = 1, nu_+ = 1/P, so Delta = 1 + 1/P^2 and
    Det sigma = 1/P^2 by construction.  The off-diagonal pair solves

        c+ c- = u = (1 + 1/P^2 - 2(E+1)^2)/2
        c+^2 + c-^2 = ((E+1)^4 + u^2 - 1/P^2)/(E+1)^2,

    so (c+ +- c-)^2 = (a^2 +- u - 1/P)(a^2 +- u + 1/P)/a^2.  With
    x = 1/P + 1 and y = 1/P - 1 the factors are x^2 y^2 / 4 for the sum
    and (2a - x)(2a + x)(2a - y)(2a + y)/4 for the difference, products
    in which nothing cancels, also near P = 1 where c+ + c- -> 0.

    Real solutions exist exactly for P >= 1/(2E + 1); the family stays
    separable up to P = 1/sqrt(2E^2 + 4E + 1).
    """
    E = np.asarray(E, dtype=float)
    P = np.asarray(P, dtype=float)
    if np.any(E <= 0.0):
        raise DomainError("energy must be positive")
    if not np.all((0.0 < P) & (P <= 1.0 + 1e-12)):
        raise DomainError("purity must lie in (0, 1]")
    P = np.minimum(P, 1.0)
    a = E + 1.0
    two_a = 2.0 * a
    x = 1.0 / P + 1.0
    y = 1.0 / P - 1.0
    # 2a - x = 2E + 1 - 1/P is the only factor that can turn negative
    if np.any(two_a - x < -1e-10):
        raise DomainError("no GLEMS below purity 1/(2E + 1)")
    total = x * y / two_a
    diff = np.sqrt(np.maximum(two_a - x, 0.0) * (two_a + x) * (two_a - y) * (two_a + y)) / two_a
    c_plus = (total + diff) / 2.0
    c_minus = (total - diff) / 2.0
    if np.any(c_plus * c_plus > a * a + 1e-10):
        raise DomainError("no positive-semidefinite GLEMS at this energy and purity")
    return _standard_form(a, a, c_plus, c_minus)


def separability_band(E):
    """Purity interval [1/(E+1)^2, 1/(2E+1)) that admits no entangled state.

    Degenerates to (1, 1) at E = 0, where only the vacuum exists.
    """
    E = np.asarray(E, dtype=float)
    if np.any(E < 0.0):
        raise DomainError("energy must be nonnegative")
    a = E + 1.0
    return _float_or_array(1.0 / (a * a)), _float_or_array(1.0 / (2.0 * E + 1.0))


def band_width(E):
    """Width of the separability band; largest at the golden-ratio energy."""
    lo, hi = separability_band(E)
    return hi - lo


# --- operations on raw 4x4 covariance matrices ---


def _check_symmetric(cm):
    """Raise unless every |sigma_ij - sigma_ji| is at most
    max(1e-12, SYMMETRY_ROUNDOFF eps sqrt|sigma_ii sigma_jj|)."""
    # each pair i < j once: a diagonal entry differs from itself by 0
    i, j = np.triu_indices(4, 1)
    d = np.abs(np.diagonal(cm, axis1=-2, axis2=-1))
    tol = np.maximum(1e-12, SYMMETRY_ROUNDOFF * EPS * np.sqrt(d[..., i] * d[..., j]))
    if np.any(np.abs(cm[..., i, j] - cm[..., j, i]) > tol):
        raise UnphysicalCovarianceError("covariance matrix is not symmetric")
    return cm


def _block_invariants(cm):
    da = np.linalg.det(cm[..., :2, :2])
    db = np.linalg.det(cm[..., 2:, 2:])
    dg = np.linalg.det(cm[..., :2, 2:])
    return da, db, dg, np.linalg.det(cm), da + db + 2.0 * dg


def _single_mode_williamson(x, y, w, z):
    """Symplectics S with S block S^T = sqrt(det block) I, for local blocks
    [[x, y], [w, z]] given entrywise, and the values sqrt(det block).

    With a = sqrt(det block), M = block / a has det 1, so
    M^(-1/2) = (adj M + I) / sqrt(tr M + 2); written in the block's entries
    S = [[z + a, -y], [-y, x + a]] / sqrt(a (x + z + 2a)), a sum of
    positive terms.  Returns the entries (s11, s12, s22) of the symmetric
    S and a.
    """
    d = x * z - y * w
    if np.any(d <= 0.0) or np.any(x <= 0.0):
        raise UnphysicalCovarianceError("local covariance block is not positive definite")
    a = np.sqrt(d)
    k = 1.0 / np.sqrt(a * (x + z + 2.0 * a))
    return (z + a) * k, -y * k, (x + a) * k, a


def _standard_form_rows(cms):
    """The closed-form reduction of an (N, 4, 4) stack to (N, 4) rows (a, b, c+, c-).

    The one core of `reduce_to_standard_form`, which runs its checks
    around it.
    """
    # one contiguous (N,) row per entry sigma_ij, at e[4 i + j]
    e = cms.reshape(-1, 16).T.copy()
    p11, p12, p22, a = _single_mode_williamson(e[0], e[1], e[4], e[5])
    q11, q12, q22, b = _single_mode_williamson(e[10], e[11], e[14], e[15])
    # X = S1 gamma S2^T, with S1 and S2 symmetric
    t11 = p11 * e[2] + p12 * e[6]
    t12 = p11 * e[3] + p12 * e[7]
    t21 = p12 * e[2] + p22 * e[6]
    t22 = p12 * e[3] + p22 * e[7]
    x11 = t11 * q11 + t12 * q12
    x12 = t11 * q12 + t12 * q22
    x21 = t21 * q11 + t22 * q12
    x22 = t21 * q12 + t22 * q22
    # singular values of X: (h1 + h2) / 2 and |h1 - h2| / 2; proper rotations
    # diagonalize it to (sv_1, sign(det X) sv_2), so c- = det X / c+
    c_plus = (np.hypot(x11 + x22, x21 - x12) + np.hypot(x11 - x22, x21 + x12)) / 2.0
    c_minus = np.divide(x11 * x22 - x12 * x21, c_plus,
                        out=np.zeros_like(c_plus), where=c_plus != 0.0)
    # a pi/2 rotation on both modes swaps the two entries
    swap = np.abs(c_minus) > np.abs(c_plus)
    c_plus, c_minus = np.where(swap, c_minus, c_plus), np.where(swap, c_plus, c_minus)
    # a pi rotation on one mode flips both signs
    sign = np.where(c_plus < 0.0, -1.0, 1.0)
    return np.stack([a, b, sign * c_plus, sign * c_minus], axis=-1)


def reduce_to_standard_form(cm):
    """Bring physical covariance matrices to standard form by local symplectics.

    Each local block is Williamson-diagonalized to a multiple of the
    identity by a single-mode squeeze-and-rotate, then residual phase
    rotations diagonalize the off-diagonal block.  The signs are
    canonicalized to c+ >= |c-| with c+ >= 0 using pi/2 and pi local
    rotations, which preserve the diagonal blocks.  Every 2x2 step is in
    closed form, elementwise over the stack (Duan et al., PRL 84, 2722
    (2000); Serafini, Illuminati & De Siena, J. Phys. B 37, L21 (2004)):
    a = sqrt(Det alpha) and b = sqrt(Det beta), the local
    symplectics of `_single_mode_williamson`, and c+-, the singular
    values of X = S1 gamma S2^T, with c- carrying the sign of Det X.

    One 4x4 matrix gives a StandardFormCM.  An (N, 4, 4) stack gives an
    (N, 4) array of (a, b, c+, c-) rows, each bit-identical to the
    reduction of its matrix alone (`_standard_form_rows`); it raises if
    any matrix is not symmetric or not physical: sigma >= 0 by `eigvalsh`
    before the reduction, nu_- >= 1 by `symplectic_eigenvalues` of the
    rows after it.  Rows whose `det_sigma` and `seralian` miss Det sigma
    and Delta, from LAPACK determinants (with `eigvalsh`, its only LAPACK
    calls) that share no arithmetic with the reduction, raise
    InvariantViolation.  Each check allows the larger of its absolute
    tolerance and the roundoff of a matrix of its diagonal's scale (the
    module constants above).
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
    d = np.abs(np.diagonal(cms, axis1=-2, axis2=-1))
    eigen_floor = -np.linalg.eigvalsh(cms).min(axis=-1)
    if np.any(eigen_floor > np.maximum(PHYSICALITY_TOL, EIGEN_ROUNDOFF * EPS * d.sum(-1))):
        raise UnphysicalCovarianceError("covariance matrix is not positive semidefinite")
    params = _standard_form_rows(cms)
    try:
        sf = StandardFormCM(*params.T)
    except DomainError as exc:
        # nu_- <= min(a, b), so a local value below 1 puts nu_- below 1 too
        raise UnphysicalCovarianceError("covariance matrix violates nu_- >= 1") from exc
    # the invariants' roundoff, from the sums of their absolute terms
    delta_tol = INVARIANT_ROUNDINGS * EPS * 2.0 * (
        np.sqrt(d[:, 0] * d[:, 1]) + np.sqrt(d[:, 2] * d[:, 3])
    ) ** 2
    det_tol = INVARIANT_ROUNDINGS * EPS * 24.0 * d.prod(-1)
    # nu_-^2 + nu_+^2 = Delta, which is known to delta_tol only
    nu_minus, _ = symplectic_eigenvalues(sf)
    if np.any(1.0 - nu_minus > np.maximum(PHYSICALITY_TOL, delta_tol / 2.0)):
        raise UnphysicalCovarianceError("covariance matrix violates nu_- >= 1")

    _, _, _, ds, delta = _block_invariants(cms)
    for got, want, tol in ((det_sigma(sf), ds, det_tol), (seralian(sf), delta, delta_tol)):
        if np.any(np.abs(got - want) > np.maximum(1e-9 * np.maximum(1.0, np.abs(want)), tol)):
            raise InvariantViolation("standard-form reduction failed to preserve invariants")
    return params
