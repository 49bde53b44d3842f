"""Vacancy-centered defect-molecule model and symmetry classification.

The minimal basis is the four dangling sp3 orbitals c1..c4 around the
vacancy, combined into symmetrized molecular orbitals

    a1 = c1 + c2,   a1' = c3 + c4,   b1 = c1 - c2,   b2 = c3 - c4.

Coordinates follow the spin physics: z is the major spin axis (a <110>
direction), the xz plane is the defect's reflection plane containing c1 and
c2, and c3, c4 sit out of plane, mirror images through xz. In this frame the
twofold axis of a C2v defect runs along x.

Symmetry has one representation: characters under the C2v operations
(C2(x), sigma(xz), sigma(xy)). An MO's come from the operations' permutation
action on c1..c4, a pair's are the product of its MOs', and the dipole
components carry x (+,+,+), y (-,-,+), z (-,+,-). A point group names an
irrep by the characters of the operations it keeps, so descent from C2v
(A1 +++, A2 +--, B1 -+-, B2 --+) to C1h (sigma(xz) only: A' +, A'' -) is
restriction, and A1 -> excited is dipole allowed along the components whose
restricted characters match: in C2v x ~ A1, z ~ B1, y ~ B2.

One labeling wrinkle: a1' = c3 + c4 is conventionally listed under A2, but
its characters are (+,+,+), i.e. a second A1 (which is also what the
HOMO/LUMO classification demands). All classification uses the characters.
"""
import warnings
from dataclasses import dataclass

import numpy as np

from .constants import SPIN_SPIN_PREFACTOR_MHZ_NM3
from .errors import InvalidParameterError, SingularGeometryError


@dataclass(frozen=True)
class PointGroup:
    """Point group of the defect: C2v or its mirror-only subgroup C1h.

    operations indexes the C2v operations the group keeps; characters maps
    each irrep label to its characters under them.
    """

    name: str
    operations: tuple
    characters: dict

    def label(self, chars):
        """Irrep of the C2v characters chars restricted to this group."""
        kept = tuple(chars[i] for i in self.operations)
        for name, irrep_chars in self.characters.items():
            if irrep_chars == kept:
                return name
        raise InvalidParameterError(f"characters {kept} match no {self.name} irrep")


C2V = PointGroup("C2v", (0, 1, 2), {
    "A1": (1, 1, 1),
    "A2": (1, -1, -1),
    "B1": (-1, 1, -1),
    "B2": (-1, -1, 1),
})
C1H = PointGroup("C1h", (1,), {"A'": (1,), "A''": (-1,)})

# dipole operator components in the defect frame (C2 along x)
_DIPOLE_CHARS = {"x": (1, 1, 1), "y": (-1, -1, 1), "z": (-1, 1, -1)}


def point_group(name) -> PointGroup:
    if name == "C2v":
        return C2V
    if name == "C1h":
        return C1H
    raise InvalidParameterError("point group must be C2v or C1h")


# permutation action of (C2(x), sigma(xz), sigma(xy)) on (c1, c2, c3, c4)
_OPS = ((1, 0, 3, 2), (0, 1, 3, 2), (1, 0, 2, 3))


def _characters(coeffs):
    coeffs = np.asarray(coeffs)
    chars = []
    for perm in _OPS:
        permuted = coeffs[list(perm)]
        if np.array_equal(permuted, coeffs):
            chars.append(1)
        elif np.array_equal(permuted, -coeffs):
            chars.append(-1)
        else:
            raise InvalidParameterError("orbital is not symmetry adapted")
    return tuple(chars)


# label: coefficients over (c1, c2, c3, c4)
_MO_TABLE = {
    "a1": (1, 1, 0, 0),
    "a1'": (0, 0, 1, 1),  # listed under A2 by convention; its characters give A1
    "b1": (1, -1, 0, 0),
    "b2": (0, 0, 1, -1),
}


def dipole_selection(excited_irrep, group: PointGroup):
    """Allowed electric-dipole components for A1(ground) -> excited_irrep.

    Accepts C2v labels for a C1h group and descends them first. Returns the
    allowed components as a tuple drawn from ('x', 'y', 'z'); empty means
    the transition is dipole forbidden.
    """
    if excited_irrep in C2V.characters:
        excited_irrep = group.label(C2V.characters[excited_irrep])
    if excited_irrep not in group.characters:
        raise InvalidParameterError(f"{excited_irrep} is not a {group.name} irrep")
    return tuple(comp for comp, chars in _DIPOLE_CHARS.items()
                 if group.label(chars) == excited_irrep)


@dataclass(frozen=True)
class VacancyGeometry:
    """The four dangling orbitals of a C2v vacancy at polar angle theta_deg.

    c1, c2 sit in the xz plane at angle theta from +-z; c3, c4 sit in the xy
    plane at the mirrored positions. positions are these sites in units of
    the bond length, and also the orbital centroids. delta is each orbital's
    electron-position variance along its bond axis, in bond lengths squared
    (minor-axis variances are neglected). theta = 45 makes each bond's
    in-plane coordinates equal in magnitude, which is the idealization under
    which the (a1, b1) tensor collapses to the two-parameter tilt form.
    """

    theta_deg: float
    delta: float = 0.0

    def __post_init__(self):
        if self.delta < 0:
            raise InvalidParameterError("delta must be non-negative")
        s, c = np.sin(np.deg2rad(self.theta_deg)), np.cos(np.deg2rad(self.theta_deg))
        object.__setattr__(self, "positions", np.array([
            [-s, 0.0, c],
            [-s, 0.0, -c],
            [s, c, 0.0],
            [s, -c, 0.0],
        ]))

    @classmethod
    def tetrahedral(cls, **kwargs):
        """Ideal undistorted vacancy: four sp3 bonds at 109.47 degrees."""
        return cls(np.rad2deg(np.arctan(np.sqrt(0.5))), **kwargs)

    def covariance(self, i):
        p = self.positions[i]
        m = p / np.linalg.norm(p)
        return self.delta * np.outer(m, m)


@dataclass(frozen=True)
class DipoleEstimate:
    """Geometric estimate of a transition dipole direction and magnitude.

    magnitude is in units of e times the bond length; order records whether
    the estimate came from the on-site terms ("onsite"), from the
    bond-midpoint overlap approximation ("overlap"), or vanished entirely
    ("zero"). forbidden marks symmetry-forbidden transitions.
    """

    direction: np.ndarray
    magnitude: float
    order: str
    forbidden: bool = False


def _pair(homo_label, lumo_label):
    """Coefficients of two MOs and the characters of their product state."""
    try:
        ca, cb = (np.asarray(_MO_TABLE[label], dtype=float)
                  for label in (homo_label, lumo_label))
    except KeyError as err:
        raise InvalidParameterError(f"unknown MO label {err}") from None
    return ca, cb, tuple(a * b for a, b in zip(_characters(ca), _characters(cb)))


def dipole_estimate(homo, lumo, geom: VacancyGeometry) -> DipoleEstimate:
    """Estimate <homo|d|lumo> from the atomic-orbital expansion.

    On-site terms use the orbital centroids with inter-orbital overlap
    neglected; when they cancel, the overlap terms are retained with a
    point charge at the bond midpoint and unit overlap integral (so the
    magnitude is an order-of-magnitude scale only, but the direction is
    fixed by symmetry). Pairs forbidden in C2v return the zero vector
    flagged forbidden.
    """
    ca, cb, excited = _pair(homo, lumo)
    if not dipole_selection(C2V.label(excited), C2V):
        return DipoleEstimate(np.zeros(3), 0.0, order="zero", forbidden=True)
    d = (ca * cb) @ geom.positions
    order = "onsite"
    if np.linalg.norm(d) < 1e-12:
        order = "overlap"
        # sum over i != j of ca[i] cb[j] (m_i + m_j) / 2
        w = np.outer(ca, cb)
        np.fill_diagonal(w, 0.0)
        d = d + 0.5 * (w.sum(axis=1) + w.sum(axis=0)) @ geom.positions
    mag = float(np.linalg.norm(d))
    if mag < 1e-12:
        return DipoleEstimate(np.zeros(3), 0.0, order="zero")
    return DipoleEstimate(d / mag, mag, order=order)


@dataclass(frozen=True)
class SpinSpinTensor:
    """Traceless symmetric dipolar spin-spin tensor of a HOMO/LUMO triplet.

    matrix is dimensionless (bond lengths^-3); frequency_mhz converts with
    the dipolar prefactor for a physical bond length.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (3, 3):
            raise InvalidParameterError("tensor must be 3x3")
        object.__setattr__(self, "matrix", m)

    def frequency_mhz(self, bond_length_nm=0.154):
        return SPIN_SPIN_PREFACTOR_MHZ_NM3 * self.matrix / bond_length_nm**3


# Determinant bookkeeping: the two-electron sum over both orderings of the
# unnormalized MO expansions carries an overall factor 2 relative to a single
# ordered pass, fixing the normalization at A = 4/<r_z>^3.
_DETERMINANT_WEIGHT = 2.0


def spinspin_tensor(homo, lumo, geom: VacancyGeometry) -> SpinSpinTensor:
    """Semi-classical dipolar tensor for the (homo, lumo) triplet.

    Every cross pair of occupied atomic orbitals contributes

        T_ij = delta_ij/R^3 - 3 (R_i R_j - Delta_ij) / R^5

    with R the separation of the orbital centroids; on-site pairs cancel
    exactly between the direct and exchange terms of the determinant and are
    skipped. Delta_ij is the bond-axis position covariance of the pair's
    first orbital, the bookkeeping under which the in-plane pair acquires
    its xz tilt. The output is symmetrized and made traceless.
    """
    ca, cb, _ = _pair(homo, lumo)
    # w[i, j] = ca[i]^2 cb[j]^2 over the cross pairs i != j
    w = np.outer(ca**2, cb**2)
    np.fill_diagonal(w, 0.0)
    pos = geom.positions
    r = pos[None, :, :] - pos[:, None, :]  # r[i, j] = pos[j] - pos[i]
    dist = np.linalg.norm(r, axis=-1)
    pair = w != 0.0
    coincident = pair & (dist < 1e-12)
    if coincident.any():
        i, j = np.argwhere(coincident)[0]
        raise SingularGeometryError(
            f"orbitals c{i+1} and c{j+1} have coincident positions"
        )
    cov = np.array([geom.covariance(k) for k in range(4)])
    cov = cov[np.minimum.outer(np.arange(4), np.arange(4))]
    r, d, cov = r[pair], dist[pair][:, None, None], cov[pair]
    t = np.eye(3) / d**3 - 3.0 * (r[:, :, None] * r[:, None, :] - cov) / d**5
    out = (w[pair][:, None, None] * t).sum(axis=0)
    out *= _DETERMINANT_WEIGHT
    out = 0.5 * (out + out.T)
    out -= np.trace(out) / 3.0 * np.eye(3)
    return SpinSpinTensor(matrix=out)


@dataclass(frozen=True)
class PrincipalAxes:
    """Eigenframe of a zero-field tensor with the (D, E) convention

    D = (3/2) * lambda_major, E = |lambda_mid - lambda_min| / 2, where the
    major eigenvalue is the one of largest magnitude. E >= 0 always; axial
    tensors (degenerate minor eigenvalues) carry axial=True and E = 0.
    """

    d_zfs: float
    e_zfs: float
    axes: np.ndarray  # rows: minor, mid, major eigenvectors
    major_axis: np.ndarray
    axial: bool


def principal_axes(t: SpinSpinTensor) -> PrincipalAxes:
    """Diagonalize a spin-spin tensor into (D, E) and principal axes."""
    m = 0.5 * (t.matrix + t.matrix.T)
    evals, evecs = np.linalg.eigh(m)
    major = int(np.argmax(np.abs(evals)))
    rest = [k for k in range(3) if k != major]
    lam_major = evals[major]
    lam_a, lam_b = evals[rest[0]], evals[rest[1]]
    scale = max(np.max(np.abs(evals)), 1e-300)
    axial = abs(lam_a - lam_b) <= 1e-12 * scale
    e = 0.0 if axial else 0.5 * abs(lam_a - lam_b)
    order = rest + [major]
    axes = evecs[:, order].T
    return PrincipalAxes(
        d_zfs=1.5 * lam_major,
        e_zfs=float(e),
        axes=axes,
        major_axis=evecs[:, major],
        axial=bool(axial),
    )


def tilt_angle(a, b):
    """Tilt of the major spin axis away from z for the in-plane tensor form
    [[A-B, 0, B], [0, A, 0], [B, 0, -2A+B]].

    Returns (first_order, exact) in radians: the first-order value
    B/(2B - 3A) and the exact rotation about y that diagonalizes the xz
    block (same sign convention). The two agree to O((B/A)^2). When
    2B = 3A the first-order expression is undefined and NaN is returned in
    its place.
    """
    if a <= 0:
        raise InvalidParameterError("A must be positive")
    denom = 2.0 * b - 3.0 * a
    first = float("nan") if denom == 0.0 else b / denom
    if denom == 0.0:
        warnings.warn("2B - 3A = 0: first-order tilt undefined", RuntimeWarning)
    exact = -0.5 * np.arctan2(2.0 * b, 3.0 * a - 2.0 * b)
    return first, float(exact)


def _snap_axis(v):
    return "xyz"[int(np.argmax(np.abs(v)))]


@dataclass(frozen=True)
class MoPair:
    """Classification record for one HOMO/LUMO pair."""

    homo: str
    lumo: str
    excited_irrep: str
    dipole_axis: str  # 'x', 'y', 'z' or 'none'
    dipole_allowed: bool
    spin_major_axis: str


_PAIR_ORDER = [("a1", "a1'"), ("a1", "b1"), ("a1'", "b1"),
               ("a1", "b2"), ("a1'", "b2"), ("b1", "b2")]


def classify_pairs(group: PointGroup, geom: VacancyGeometry):
    """Excited-state symmetry, dipole axis and spin axis for all six pairs.

    The dipole axis follows the selection rules for the pair's excited
    irrep; when the group leaves an x/z ambiguity (C1h) a nonzero geometric
    estimate breaks it. Pairs that are dipole forbidden in C2v keep the
    C1h-allowed direction with dipole_allowed=False (they become weakly
    allowed under any in-plane distortion). The spin axis is the major
    principal axis of the semi-classical spin-spin tensor snapped to the
    nearest coordinate axis.
    """
    records = []
    for homo, lumo in _PAIR_ORDER:
        excited = _pair(homo, lumo)[2]
        label = group.label(excited)
        allowed = dipole_selection(label, group)
        if not allowed:
            # report the direction that becomes allowed on descent to C1h
            fallback = dipole_selection(C1H.label(excited), C1H)
            axis = fallback[0] if len(fallback) == 1 else "none"
        elif len(allowed) == 1:
            axis = allowed[0]
        else:
            est = dipole_estimate(homo, lumo, geom)
            axis = _snap_axis(est.direction) if est.magnitude > 1e-12 else allowed[0]
        tensor = spinspin_tensor(homo, lumo, geom)
        frame = principal_axes(tensor)
        records.append(
            MoPair(
                homo=homo,
                lumo=lumo,
                excited_irrep=label,
                dipole_axis=axis,
                dipole_allowed=bool(allowed),
                spin_major_axis=_snap_axis(frame.major_axis),
            )
        )
    return records


def candidate_filter(records, dipole_axes=None, spin_axes=None,
                     require_coalignment=False):
    """Subset of classified pairs consistent with experimental constraints.

    dipole_axes / spin_axes are allowed axis-label sets (None disables the
    constraint); the experimental constraint for a <110>-oriented center is
    {'z', 'y'}, the two inequivalent <110> directions of the defect frame.
    A dipole constraint also rejects pairs whose transition is forbidden in
    the record's group.
    """
    out = []
    for rec in records:
        if dipole_axes is not None:
            if not rec.dipole_allowed or rec.dipole_axis not in dipole_axes:
                continue
        if spin_axes is not None and rec.spin_major_axis not in spin_axes:
            continue
        if require_coalignment and rec.dipole_axis != rec.spin_major_axis:
            continue
        out.append(rec)
    return out


@dataclass(frozen=True)
class StructureCandidate:
    """A candidate chemical structure with its point group.

    Bracketed species stand for any element of that periodic-table column;
    labels follow the substitution notation (XCV: next-to-nearest neighbor,
    XVX/XVY: nearest-neighbor substitutions flanking the vacancy).
    """

    label: str
    symmetry: str


_STRUCTURES = {
    4: [StructureCandidate("[Si]CV", "C1h"),
        StructureCandidate("[Si]V[Si]", "C2v")],
    6: [StructureCandidate("[O]CV", "C1h"),
        StructureCandidate("[N]-", "C1h"),
        StructureCandidate("[O]V[Si]", "C1h")],
}


def structure_shortlist(electron_count):
    """Simplest vacancy-plus-substitution structures for the electron count.

    A singlet ground state needs an even electron count; the four dangling
    bonds contribute four electrons and impurities zero or two more, so
    only 4 and 6 are admissible.
    """
    if electron_count % 2 == 1:
        raise InvalidParameterError(
            "odd electron count contradicts a singlet ground state"
        )
    if electron_count not in _STRUCTURES:
        raise InvalidParameterError("electron count must be 4 or 6")
    return list(_STRUCTURES[electron_count])
