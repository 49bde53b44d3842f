"""S=1 triplet spin Hamiltonian: construction, ODMR lines, field sweeps, fitting.

The zero-field interaction is D*[Sz^2 - S(S+1)/3] + E*(Sx^2 - Sy^2) in the
defect frame (z = major axis), plus the Zeeman term b.S with
b = g * (muB/h) * B the field in defect coordinates, in MHz. Spin operators
are the standard S=1 matrices in the |+1>, |0>, |-1> basis; the zero-field
eigenvalues are then {-2D/3, D/3 - E, D/3 + E}.

The ODMR lines come in closed form (O. K. Smith, CACM 4, 168 (1961)). The
Hamiltonian is traceless, so its eigenvalues are the roots of
lambda^3 - p*lambda - q with the two invariants

    p = tr(H^2)/2 = D^2/3 + E^2 + |b|^2
    q = det H     = -2D^3/27 + D*(b_z^2 - |b|^2/3 + 2E^2/3) + E*(b_x^2 - b_y^2).

With psi = arccos((q/2)(3/p)^(3/2))/3 in [0, pi/3] the three lines are
2*sqrt(p)*{sin(psi), sin(pi/3 - psi), sin(pi/3 + psi)}: sines, so no
difference of nearly equal eigenvalues cancels digits. Near a double root
the arccos loses precision, so a field whose smallest line falls below
1e-3 * 2*sqrt(p) takes its lines from eigvalsh of the Hamiltonian instead.
The closed form then agrees with eigvalsh to 2e-12 MHz on sweeps at
D ~ 1.1 GHz, and to 2e-10 MHz over random D in [-3, 3] GHz with E and B down
to 0 (the worst rows sit just above the guard).
"""
from dataclasses import dataclass, field, replace

import numpy as np

from .constants import MU_B_MHZ_PER_G, SPIN1_ID, SPIN1_X, SPIN1_Y, SPIN1_Z
from .errors import ConvergenceError, FitDegenerateError, InvalidParameterError

_ORTHO_TOL = 1e-12


def _check_axes(axes):
    axes = np.asarray(axes, dtype=float)
    if axes.shape != (3, 3):
        raise InvalidParameterError("axes must be a 3x3 matrix with rows x, y, z")
    gram = axes @ axes.T
    if np.max(np.abs(gram - np.eye(3))) > _ORTHO_TOL:
        raise InvalidParameterError("axes rows are not an orthonormal triad")
    if np.linalg.det(axes) < 0:
        raise InvalidParameterError("axes triad is left-handed (det < 0)")
    return axes


@dataclass(frozen=True)
class ZfsParams:
    """Zero-field splitting parameters and defect-frame orientation.

    D, E in MHz; g dimensionless; axes rows are the defect x, y, z unit
    vectors expressed in crystal coordinates (z = major spin axis). E >= 0 by
    convention, the sign being absorbed into the minor-axis labeling.
    """

    D: float
    E: float
    g: float = 2.0
    axes: np.ndarray = field(default_factory=lambda: np.eye(3))

    def __post_init__(self):
        object.__setattr__(self, "axes", _check_axes(self.axes))
        if self.E < 0:
            raise InvalidParameterError("E must be >= 0 (convention)")


@dataclass(frozen=True)
class FieldVec:
    """A static magnetic field vector in crystal coordinates, in Gauss."""

    B: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "B", np.asarray(self.B, dtype=float).reshape(3))


@dataclass(frozen=True)
class OdmrLineSet:
    """Three spin-transition frequencies in MHz, ascending."""

    frequencies: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.frequencies, dtype=float).reshape(3)
        if np.any(f < -1e-9) or np.any(np.diff(f) < -1e-9):
            raise InvalidParameterError("line frequencies must be >= 0 and ascending")
        object.__setattr__(self, "frequencies", f)


def zero_field_lines(p: ZfsParams) -> OdmrLineSet:
    """Zero-field ODMR line pattern {2E, |D|-E, |D|+E} sorted ascending: the
    differences of the levels -2D/3 and D/3 -+ E for D of either sign."""
    d = abs(p.D)
    return OdmrLineSet(np.sort([2.0 * p.E, abs(d - p.E), d + p.E]))


def transition_frequencies(p: ZfsParams, b: FieldVec) -> OdmrLineSet:
    """Pairwise eigenvalue differences of the spin Hamiltonian, ascending."""
    return OdmrLineSet(_batched_lines(p.D, p.E, _defect_field(p.g, p.axes, b.B[None]))[0])


def _defect_field(g, axes, b_vectors):
    """Zeeman fields g*(muB/h)*B along the defect axes in MHz, (n, 3), for a
    stack of crystal-frame fields in Gauss."""
    return (g * MU_B_MHZ_PER_G) * (b_vectors @ axes.T)


def _batched_hamiltonian(D, E, b):
    """Spin Hamiltonians in MHz for a stack of defect-frame Zeeman fields, (n, 3, 3)."""
    hz = D * (SPIN1_Z @ SPIN1_Z - (2.0 / 3.0) * SPIN1_ID) + E * (
        SPIN1_X @ SPIN1_X - SPIN1_Y @ SPIN1_Y
    )
    return (
        hz[None, :, :]
        + b[:, 0, None, None] * SPIN1_X
        + b[:, 1, None, None] * SPIN1_Y
        + b[:, 2, None, None] * SPIN1_Z
    )


# A smallest line below this fraction of 2*sqrt(p) marks a near double root,
# where the arccos of the closed form loses digits.
_NEAR_DOUBLE_ROOT = 1e-3
# sin(psi + k*pi/3), k = 0, 1, 2, are the lines over 2*sqrt(p); the last
# equals sin(pi/3 - psi)
_THIRDS = np.array([0.0, np.pi / 3.0, 2.0 * np.pi / 3.0])


def _batched_lines(D, E, b):
    """Sorted transition frequencies for a stack of defect-frame Zeeman fields,
    (n, 3): the closed form of the module docstring, with eigvalsh for rows
    near a double root or past the float range."""
    # p and q are affine in the squared field components
    weights = np.array([[1.0, E - D / 3.0], [1.0, -E - D / 3.0], [1.0, 2.0 * D / 3.0]])
    # NaN (p = 0: every line is 0) and a clipped +-1 (q past the float
    # range) put a row under the guard below, as does p**1.5 past that range
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        pq = (b * b) @ weights
        p = pq[:, 0] + (D * D / 3.0 + E * E)
        q = pq[:, 1] + (2.0 * D * E * E / 3.0 - 2.0 * D * D * D / 27.0)
        p32 = p**1.5
        cos3psi = q * (0.5 * 3.0**1.5) / p32
    psi = np.arccos(np.clip(cos3psi, -1.0, 1.0)) / 3.0
    lines = np.sin(psi[:, None] + _THIRDS)
    lines.sort(axis=1)
    near = ~(lines[:, 0] >= _NEAR_DOUBLE_ROOT) | (p32 == np.inf)
    lines *= 2.0 * np.sqrt(p)[:, None]
    if near.any():
        ev = np.linalg.eigvalsh(_batched_hamiltonian(D, E, b[near]))
        exact = np.stack([ev[:, 1] - ev[:, 0], ev[:, 2] - ev[:, 1], ev[:, 2] - ev[:, 0]],
                         axis=1)
        exact.sort(axis=1)
        lines[near] = exact
    return lines


def rotation_matrix(axis, angle_rad):
    """Rotation by angle_rad about the given axis (Rodrigues formula)."""
    a = np.asarray(axis, dtype=float)
    a = a / np.linalg.norm(a)
    k = np.array([[0, -a[2], a[1]], [a[2], 0, -a[0]], [-a[1], a[0], 0]])
    return np.eye(3) + np.sin(angle_rad) * k + (1 - np.cos(angle_rad)) * (k @ k)


def plane_basis(plane_normal):
    """Orthonormal (u, v) spanning the plane perpendicular to plane_normal.

    For normal [001] this gives u=[100], v=[010], so angle 0 points along
    [100] and angles increase toward [010].
    """
    n = np.asarray(plane_normal, dtype=float)
    if n.shape != (3,) or not np.linalg.norm(n) > 0:
        raise InvalidParameterError("plane_normal must be a nonzero 3-vector")
    n = n / np.linalg.norm(n)
    ref = np.array([1.0, 0.0, 0.0])
    if abs(n @ ref) > 0.9:
        ref = np.array([0.0, 1.0, 0.0])
    u = ref - (ref @ n) * n
    u = u / np.linalg.norm(u)
    v = np.cross(n, u)
    return u, v


def _in_plane_field(magnitude, plane_normal, angles_deg):
    """Crystal-frame fields (n, 3) of fixed magnitude at angles_deg from u toward v."""
    u, v = plane_basis(plane_normal)
    rad = np.deg2rad(angles_deg)
    return magnitude * (np.outer(np.cos(rad), u) + np.outer(np.sin(rad), v))


def orientation_family():
    """The six <110>-oriented defect frames as ZfsParams-ready axis triads.

    Each triad takes z along one of the six <110> axes, x along the unique
    <100> axis perpendicular to it (e.g. x||[100], y||[011], z||[011bar]),
    and y = z cross x to make the triad right-handed.
    """
    z_axes = [
        (1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1), (0, 1, 1), (0, 1, -1),
    ]
    triads = []
    for z in z_axes:
        z = np.asarray(z, dtype=float) / np.sqrt(2.0)
        x = np.zeros(3)
        x[np.argmin(np.abs(z))] = 1.0
        y = np.cross(z, x)
        triads.append(np.vstack([x, y, z]))
    return triads


@dataclass
class SweepTable:
    """Line frequencies on an (angle, orientation) grid.

    lines has shape (n_orientations, n_angles, 3), ascending along the last
    axis.
    """

    angles_deg: np.ndarray
    lines: np.ndarray


def angular_sweep(p: ZfsParams, magnitude, plane_normal, angles_deg,
                  orientations=None) -> SweepTable:
    """Rotate a field of fixed magnitude in a crystal plane and record lines.

    orientations is a list of axis triads (defaults to the defect's own
    frame); D, E, g are taken from p for every orientation.
    """
    angles_deg = np.asarray(angles_deg, dtype=float)
    if angles_deg.size == 0:
        raise InvalidParameterError("angle grid is empty")
    if np.any(np.diff(angles_deg) <= 0) and angles_deg.size > 1:
        raise InvalidParameterError("angle grid must be strictly increasing")
    b_vectors = _in_plane_field(magnitude, plane_normal, angles_deg)
    if orientations is None:
        orientations = [p.axes]
    lines = np.empty((len(orientations), angles_deg.size, 3))
    for i, axes in enumerate(orientations):
        lines[i] = _batched_lines(p.D, p.E, _defect_field(p.g, _check_axes(axes), b_vectors))
    return SweepTable(angles_deg=angles_deg, lines=lines)


# order-preserving branch pairs for two lines at one angle
_PAIRS = np.array([(0, 1), (0, 2), (1, 2)])


@dataclass
class OdmrFitResult:
    params: ZfsParams
    residuals: np.ndarray
    covariance: np.ndarray
    param_names: tuple
    rms_mhz: float
    n_iter: int


def _observed_array(observed):
    obs = np.asarray(observed, dtype=float)
    if obs.ndim != 2 or obs.shape[1] not in (2, 3):
        raise InvalidParameterError(
            "observed must be rows of (angle_deg, freq_MHz[, sigma_MHz])"
        )
    if obs.shape[1] == 2:
        obs = np.column_stack([obs, np.ones(len(obs))])
    if np.any(obs[:, 2] <= 0):
        raise InvalidParameterError("sigma_MHz must be positive")
    return obs


def fit_odmr(observed, init: ZfsParams, magnitude, plane_normal=(0, 0, 1),
             fit_orientation=False, fit_tilt=False) -> OdmrFitResult:
    """Weighted least-squares fit of (D, E) [and orientation] to ODMR lines.

    observed: rows of (angle_deg, freq_MHz, sigma_MHz) where the field of
    fixed magnitude was rotated in the plane perpendicular to plane_normal.
    Observed frequencies sharing an angle are matched to simulated branches
    in ascending order: three take the three branches, two take the
    order-preserving pair of branches with the least cost (which keeps them
    from collapsing onto one branch), and a lone frequency, or each of more
    than three, takes its nearest branch. fit_orientation frees two rotations
    moving the defect z axis; fit_tilt frees the rotation about z that
    reorients the minor axes (the tilt suggested by imperfect high-symmetry
    fits). Damped Gauss-Newton with a Levenberg schedule (damping starts at
    1e-3, x10 on reject, /10 on accept) for at most 100 iterations, stopping
    when a step falls below 1e-12 of the parameter norm; exhausting the
    damping schedule without an improving step counts as stationary.

    The initial guess must lie in the basin of the global minimum; ODMR
    branch crossings make the problem multimodal.
    """
    obs = _observed_array(observed)
    if len(obs) < 6:
        raise InvalidParameterError("need at least 6 data points")
    freqs, sigma = obs[:, 1], obs[:, 2]
    angles, at = np.unique(obs[:, 0], return_inverse=True)
    b_vectors = _in_plane_field(magnitude, plane_normal, angles)
    # branch matching set-up: the size of each row's angle group and the
    # row's rank by frequency within it; residuals() fills in the branch of
    # every row outside a group of three
    count = np.bincount(at)
    order = np.lexsort((freqs, at))
    rank = np.empty_like(at)
    rank[order] = np.arange(len(obs)) - (np.cumsum(count) - count)[at[order]]
    size = count[at]
    rows = np.arange(len(obs))
    nearest = np.flatnonzero((size == 1) | (size > 3))
    pairs = order[size[order] == 2]
    lo, hi = pairs[0::2], pairs[1::2]  # lower and upper line of each pair
    branch = np.where(size == 3, rank, 0)

    names = ["D", "E"]
    if fit_orientation:
        names += ["rot_x", "rot_y"]
    if fit_tilt:
        names += ["tilt_z"]
    names = tuple(names)

    def axes_for(theta):
        """init.axes turned by the free frame angles theta[2:]."""
        rot = None
        if fit_orientation:
            rot = rotation_matrix(init.axes[1], theta[3]) @ rotation_matrix(
                init.axes[0], theta[2]
            )
        if fit_tilt:
            tilt = rotation_matrix(init.axes[2], theta[-1])
            rot = tilt if rot is None else tilt @ rot
        return init.axes if rot is None else init.axes @ rot.T

    # with no frame angle free, the defect-frame field is the same for every theta
    b_fixed = None if fit_orientation or fit_tilt else _defect_field(
        init.g, init.axes, b_vectors)

    def residuals(theta):
        b = b_fixed if b_fixed is not None else _defect_field(
            init.g, axes_for(theta), b_vectors)
        lines = _batched_lines(theta[0], theta[1], b)
        d = freqs[:, None] - lines[at]
        w = d / sigma[:, None]
        branch[nearest] = np.argmin(np.abs(d[nearest]), axis=1)
        cost = w[lo[:, None], _PAIRS[:, 0]] ** 2 + w[hi[:, None], _PAIRS[:, 1]] ** 2
        branch[lo], branch[hi] = _PAIRS[np.argmin(cost, axis=1)].T
        return w[rows, branch]

    theta = np.zeros(len(names))
    theta[0], theta[1] = init.D, init.E

    def jacobian(theta, r0):
        J = np.empty((len(obs), len(theta)))
        for k in range(len(theta)):
            step = 1e-6 * max(1.0, abs(theta[k]))
            tp = theta.copy()
            tp[k] += step
            J[:, k] = (residuals(tp) - r0) / step
        return J

    max_iter, tol = 100, 1e-12
    lam = 1e-3
    converged = False
    n_iter = 0
    r = residuals(theta)
    cost = float(r @ r)
    for n_iter in range(1, max_iter + 1):
        J = jacobian(theta, r)
        jtj = J.T @ J
        jtr = J.T @ r
        accepted = False
        for _ in range(50):
            damped = jtj + lam * np.diag(np.clip(np.diag(jtj), 1e-12, None))
            try:
                step = np.linalg.solve(damped, -jtr)
            except np.linalg.LinAlgError:
                raise FitDegenerateError("normal equations are singular")
            if not np.all(np.isfinite(step)):
                raise FitDegenerateError("normal equations are singular")
            trial = theta + step
            r_trial = residuals(trial)
            trial_cost = float(r_trial @ r_trial)
            if trial_cost <= cost:
                theta, r, cost = trial, r_trial, trial_cost
                lam = max(lam / 10.0, 1e-12)
                accepted = True
                break
            lam *= 10.0
            if lam > 1e12:
                break
        if not accepted:
            converged = True  # no improving step exists at any damping
            break
        if np.linalg.norm(step) < tol * (1.0 + np.linalg.norm(theta)):
            converged = True
            break
    if not converged and n_iter >= max_iter:
        raise ConvergenceError(
            "ODMR fit did not converge after %d iterations" % max_iter,
            last_iterate=dict(zip(names, theta)),
            diagnostics={"cost": cost},
        )

    J = jacobian(theta, r)
    jtj = J.T @ J
    dof = max(len(obs) - len(theta), 1)
    s2 = cost / dof
    try:
        cov = s2 * np.linalg.inv(jtj)
    except np.linalg.LinAlgError:
        raise FitDegenerateError("normal equations are singular at the optimum")

    fitted = replace(init, D=abs(theta[0]), E=abs(theta[1]), axes=axes_for(theta))
    return OdmrFitResult(
        params=fitted,
        residuals=r * sigma,
        covariance=cov,
        param_names=names,
        rms_mhz=float(np.sqrt(np.mean((r * sigma) ** 2))),
        n_iter=n_iter,
    )
