"""Coincidence-histogram reduction and multi-exponential g2 fitting.

Raw coincidences c(t) are normalized by the detector singles rates, bin
width and accumulation time, C_N = c / (N1 N2 w T), then background-corrected
with the signal-to-background ratio rho: g2 = (C_N - (1 - rho^2)) / rho^2.
The corrected curve is fitted with 1 - sum_i alpha_i exp(-t/tau_i).
"""
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, FitDegenerateError, InvalidParameterError

_UNIFORM_TOL = 1e-9

# The largest |g2| fit_g2 takes. A corrected g2 has its plateau at 1; a curve
# past this comes from a wrong n1, n2, bin width, accumulation time, rho or
# count, and from about 1e54 on it drove the fit into LAPACK errors.
MAX_G2 = 1e6


@dataclass(frozen=True)
class CoincidenceHistogram:
    """Raw coincidence counts on a uniform delay grid.

    bin_centers in ns, counts as non-negative integers, bin_width_ns the
    common bin width, accumulation_time_s the total integration time, and
    n1/n2 the singles count rates of the two detectors in 1/s.
    """

    bin_centers: np.ndarray
    counts: np.ndarray
    bin_width_ns: float
    accumulation_time_s: float
    n1: float
    n2: float

    def __post_init__(self):
        centers = np.asarray(self.bin_centers, dtype=float)
        counts = np.asarray(self.counts, dtype=float)
        if centers.shape != counts.shape or centers.ndim != 1:
            raise InvalidParameterError("bin_centers and counts must match 1-d shapes")
        if centers.size >= 2:
            steps = np.diff(centers)
            if np.max(np.abs(steps - steps[0])) > _UNIFORM_TOL * abs(steps[0]):
                raise InvalidParameterError("histogram bins are not uniform")
        if np.any(counts < 0):
            raise InvalidParameterError("counts must be non-negative")
        object.__setattr__(self, "bin_centers", centers)
        object.__setattr__(self, "counts", counts)


def normalize(h: CoincidenceHistogram) -> np.ndarray:
    """Normalized coincidence curve C_N = c / (N1 N2 w T)."""
    denom = h.n1 * h.n2 * (h.bin_width_ns * 1e-9) * h.accumulation_time_s
    if denom <= 0:
        raise InvalidParameterError("N1, N2, bin width and T must all be positive")
    return h.counts / denom


def background_correct(cn, rho) -> np.ndarray:
    """Remove uncorrelated background: g2 = (C_N - (1 - rho^2)) / rho^2."""
    if not 0.0 < rho <= 1.0:
        raise InvalidParameterError("rho must be in (0, 1]")
    cn = np.asarray(cn, dtype=float)
    return (cn - (1.0 - rho**2)) / rho**2


@dataclass(frozen=True)
class G2Fit:
    """Fitted multi-exponential correlation: 1 - sum alpha_i exp(-t/tau_i).

    taus in ns, ascending; rho is the signal-to-background ratio used for
    the correction (1 when none was applied). The model value at t=0 is
    1 - sum(alphas) by construction.
    """

    alphas: np.ndarray
    taus: np.ndarray
    rho: float = 1.0

    def __post_init__(self):
        alphas = np.asarray(self.alphas, dtype=float)
        taus = np.asarray(self.taus, dtype=float)
        if alphas.shape != taus.shape:
            raise InvalidParameterError("alphas and taus must have equal length")
        if np.any(taus <= 0):
            raise InvalidParameterError("time constants must be positive")
        order = np.argsort(taus)
        object.__setattr__(self, "alphas", alphas[order])
        object.__setattr__(self, "taus", taus[order])
        if not 0.0 < self.rho <= 1.0:
            raise InvalidParameterError("rho must be in (0, 1]")

    def evaluate(self, tau_ns):
        tau_ns = np.asarray(tau_ns, dtype=float)
        return 1.0 - _model_matrix(tau_ns, self.taus) @ self.alphas


@dataclass
class G2FitResult:
    fit: G2Fit
    alpha_err: np.ndarray
    tau_err: np.ndarray
    residual_rms: float
    init_residual_rms: float
    jacobian_condition: float
    n_evaluations: int


def _model_matrix(tau_ns, taus):
    return np.exp(-np.outer(tau_ns, 1.0 / taus))


def fit_g2(tau_ns, values, n_exp=4, counts=None, init_taus=None,
           rho=1.0) -> G2FitResult:
    """Nonlinear least-squares fit of 1 - sum alpha_i exp(-t/tau_i).

    tau_ns, values: the corrected g2 curve (delays in ns; only non-negative
    delays are used). counts, when given, supply Poisson weights
    1/max(counts, 1); otherwise weighting is uniform. init_taus overrides
    the default initialization (log-spaced time constants spanning the data
    range, amplitudes from linear least squares at fixed taus).

    A curve beyond MAX_G2 in magnitude, or not finite, is refused.
    Four-exponential fits are only identifiable when the delay grid spans
    at least about three decades; a narrower span triggers a warning, as
    does a Jacobian condition number above 1e12. A collapsed component (a
    time constant far below the bin width, whose Jacobian column is zero or
    makes the condition infinite) raises FitDegenerateError.
    """
    tau_ns = np.asarray(tau_ns, dtype=float)
    values = np.asarray(values, dtype=float)
    keep = tau_ns >= 0
    tau_ns, values = tau_ns[keep], values[keep]
    if counts is not None:
        counts = np.asarray(counts, dtype=float)[keep]
    if tau_ns.size < 8 * n_exp:
        raise InvalidParameterError(f"need at least {8 * n_exp} points for n_exp={n_exp}")
    pos = tau_ns[tau_ns > 0]
    if pos.size == 0:
        raise InvalidParameterError("delay grid has no positive delays")
    out_of_range = ~(np.abs(values) <= MAX_G2)
    if out_of_range.any():
        i = np.argmax(out_of_range)
        raise InvalidParameterError(
            f"g2 is {values[i]:.3g} at {tau_ns[i]:.3g} ns, beyond the {MAX_G2:g} a "
            "normalized, background-corrected curve can reach: check n1, n2, the bin "
            "width, the accumulation time, rho and the counts")
    if n_exp >= 4 and pos.max() / pos.min() < 1e3:
        warnings.warn(
            "delay grid spans fewer than 3 decades; 4-exponential fit may be "
            "unidentifiable",
            RuntimeWarning,
        )

    w = np.ones_like(values)
    if counts is not None:
        w = 1.0 / np.maximum(counts, 1.0)
    sqw = np.sqrt(w)

    lo = max(pos.min(), 1e-3)
    hi = pos.max()
    if init_taus is None:
        # multi-start over a grid of log-spaced ladders; exponential sums
        # are littered with collapsed-pair local minima, so anchor the
        # ladder ends at several scales and keep the best fit
        starts = [
            np.geomspace(min(lo * lf, hi / hf), hi / hf, n_exp)
            for lf in (1.0, 4.0, 16.0)
            for hf in (1.0, 5.0, 25.0)
        ]
    else:
        init_taus = np.asarray(init_taus, dtype=float)
        if init_taus.shape != (n_exp,):
            raise InvalidParameterError("init_taus must supply n_exp time constants")
        starts = [init_taus]

    target = (1.0 - values) * sqw

    def solve(taus):
        """The unweighted model matrix at taus and the amplitudes that fit it."""
        phi = _model_matrix(tau_ns, taus)
        alpha, *_ = np.linalg.lstsq(phi * sqw[:, None], target, rcond=None)
        return phi, alpha

    def projected_residual(log_taus):
        phi, alpha = solve(np.exp(log_taus))
        return (1.0 - phi @ alpha - values) * sqw

    from scipy.optimize import least_squares

    init_rms = None
    sol = None
    for x0 in (np.log(s) for s in starts):
        if init_rms is None:
            r0 = projected_residual(x0)
            init_rms = float(np.sqrt(np.mean(r0**2)))
        trial = least_squares(projected_residual, x0, max_nfev=2000)
        if sol is None or trial.cost < sol.cost:
            sol = trial
    if sol.status <= 0:
        raise ConvergenceError(
            "g2 fit did not converge",
            last_iterate={"taus": np.exp(sol.x)},
            diagnostics={"cost": float(sol.cost)},
        )
    taus = np.exp(sol.x)
    phi, alphas = solve(taus)

    # uncertainties from the full (alpha, tau) Jacobian at the optimum
    j_alpha = -phi
    j_tau = -(alphas[None, :] * phi * (tau_ns[:, None] / taus[None, :] ** 2))
    jac = np.hstack([j_alpha, j_tau]) * sqw[:, None]
    cond = float(np.linalg.cond(jac))
    # the smallest tau column is that of the most collapsed component
    col = np.linalg.norm(jac[:, n_exp:], axis=0)
    k = int(np.argmin(col))
    if col[k] == 0.0 or not np.isfinite(cond):
        raise FitDegenerateError(
            f"g2 fit component collapsed: its Jacobian column vanishes at tau = "
            f"{taus[k]:.3g} ns, against a bin width of {pos.min():.3g} ns (the first "
            "nonzero delay); fit fewer exponentials")
    if cond > 1e12:
        warnings.warn(
            "ill-conditioned Jacobian (condition > 1e12): fit parameters are "
            "not individually identifiable",
            RuntimeWarning,
        )
    resid = (1.0 - phi @ alphas - values) * sqw
    dof = max(tau_ns.size - 2 * n_exp, 1)
    s2 = float(resid @ resid) / dof
    try:
        cov = s2 * np.linalg.pinv(jac.T @ jac)
        perr = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    except np.linalg.LinAlgError:
        perr = np.full(2 * n_exp, np.nan)

    order = np.argsort(taus)
    fit = G2Fit(alphas=alphas[order], taus=taus[order], rho=rho)
    return G2FitResult(
        fit=fit,
        alpha_err=perr[:n_exp][order],
        tau_err=perr[n_exp:][order],
        residual_rms=float(np.sqrt(np.mean(resid**2))),
        init_residual_rms=init_rms,
        jacobian_condition=cond,
        n_evaluations=int(sol.nfev),
    )
