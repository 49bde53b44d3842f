"""Five-level singlet-triplet photodynamics: forward kinetics and inversion.

The model couples a ground singlet S0, an excited singlet S1 and three
metastable triplet sublevels T+, T-, T0. Optical pumping k_ex promotes
S0 -> S1, fluorescence k_f returns S1 -> S0, the upper intersystem crossing
feeds each sublevel at k_isc/3 (k_isc is the total rate out of S1), and the
sublevels drain back to S0 at k+, k-, k0. The extended model adds an
excited-state-absorption channel k_ex*beta from S1 into the long-lived T0
sublevel, which is what makes both the fluorescence saturation turn over and
the apparent ISC rate grow linearly with pump power.

Forward operations (steady state, photon rate, analytic and numeric g2) and
the backward map from fitted four-exponential correlation parameters to the
six physical rates both live here.
"""
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .constants import photon_energy_J
from .errors import (
    DegenerateSystemError,
    FitDegenerateError,
    InconsistentFitError,
    InvalidFitError,
    InvalidParameterError,
)

@dataclass(frozen=True)
class RateParams:
    """Kinetic rates of the five-level model, all in 1/s.

    beta is the dimensionless excited-state-absorption coefficient (ratio of
    the secondary to the primary absorption cross-section); eta is the photon
    collection efficiency.
    """

    k_ex: float
    k_f: float
    k_isc: float
    k0: float
    km: float
    kp: float
    beta: float = 0.0
    eta: float = 1.0

    def __post_init__(self):
        for name in ("k_ex", "k_f", "k_isc", "k0", "km", "kp", "beta"):
            if getattr(self, name) < 0:
                raise InvalidParameterError(f"{name} must be >= 0")
        if not 0.0 < self.eta <= 1.0:
            raise InvalidParameterError("eta must be in (0, 1]")


@dataclass(frozen=True)
class Populations:
    """Steady-state or transient level occupations; they sum to one."""

    s0: float
    s1: float
    t_plus: float
    t_minus: float
    t0: float

    def as_array(self):
        return np.array([self.s0, self.s1, self.t_plus, self.t_minus, self.t0])

    @classmethod
    def from_array(cls, p):
        p = np.asarray(p, dtype=float)
        if np.any(p < -1e-9) or abs(p.sum() - 1.0) > 1e-9:
            raise InvalidParameterError("populations must be >= 0 and sum to 1")
        return cls(*np.clip(p, 0.0, None))


@dataclass(frozen=True)
class CharPoly:
    """Coefficients of the monic relaxation quartic x^4+Bx^3+Cx^2+Dx+E.

    Its roots are the eigenvalues of the reduced 4-level rate matrix (S0
    eliminated by population conservation), so every root has a non-positive
    real part.
    """

    b: float
    c: float
    d: float
    e: float

    def as_array(self):
        return np.array([1.0, self.b, self.c, self.d, self.e])


def rate_matrix(r: RateParams) -> np.ndarray:
    """Full 5x5 generator M with d/dt p = M p, p ordered (s0,s1,t+,t-,t0)."""
    q = r.k_isc / 3.0
    esa = r.k_ex * r.beta
    return np.array([
        [-r.k_ex, r.k_f, r.kp, r.km, r.k0],
        [r.k_ex, -(r.k_f + r.k_isc + esa), 0.0, 0.0, 0.0],
        [0.0, q, -r.kp, 0.0, 0.0],
        [0.0, q, 0.0, -r.km, 0.0],
        [0.0, q + esa, 0.0, 0.0, -r.k0],
    ])


def steady_state(r: RateParams) -> Populations:
    """Stationary occupations: the null vector of the rate matrix, sum 1.

    Built from the flow balance (s1 carries k_ex/(k_f + k_isc + k_ex*beta)
    of s0's population, each sublevel its feed over its drain) and verified
    against the rate matrix to 1e-10 relative.
    """
    m = rate_matrix(r)
    scale = np.max(np.abs(m))
    if scale == 0.0:
        raise DegenerateSystemError("all rates are zero")
    esa = r.k_ex * r.beta
    out_s1 = r.k_f + r.k_isc + esa
    if r.k_ex > 0 and out_s1 == 0.0:
        raise DegenerateSystemError("excited state has no decay channel")
    s1 = r.k_ex / out_s1 if r.k_ex > 0 else 0.0
    q = r.k_isc / 3.0
    p = [1.0, s1]
    for feed, drain in ((q, r.kp), (q, r.km), (q + esa, r.k0)):
        if feed * s1 == 0.0:
            p.append(0.0)
        elif drain == 0.0:
            raise DegenerateSystemError("fed triplet sublevel has no drain")
        else:
            p.append(feed * s1 / drain)
    p = np.asarray(p) / np.sum(p)
    if np.linalg.norm(m @ p) > 1e-10 * scale:
        raise DegenerateSystemError("rate matrix has no physical stationary state")
    return Populations.from_array(p)


def characteristic_coefficients(r: RateParams) -> CharPoly:
    """Quartic coefficients of the reduced relaxation dynamics.

    For beta=0 these are B = k_ex+k_f+k_isc+k0+km+kp and the matching C, D,
    E built from the elementary symmetric sums of the triplet rates (the
    ISC feed per sublevel is k_isc/3). The ESA channel enters as an extra
    feed k_ex*beta into T0 and an extra decay of S1.
    """
    e1 = r.k0 + r.km + r.kp
    e2 = r.k0 * r.km + r.k0 * r.kp + r.km * r.kp
    e3 = r.k0 * r.km * r.kp
    q = r.k_isc / 3.0
    esa = r.k_ex * r.beta
    a = r.k_ex + r.k_f + r.k_isc + esa
    qp, qm, q0 = q, q, q + esa
    b = a + e1
    c = a * e1 + e2 + r.k_ex * (qp + qm + q0)
    d = (
        a * e2
        + e3
        + r.k_ex * (qp * (r.km + r.k0) + qm * (r.kp + r.k0) + q0 * (r.kp + r.km))
    )
    e = a * e3 + r.k_ex * (
        qp * r.km * r.k0 + qm * r.kp * r.k0 + q0 * r.kp * r.km
    )
    return CharPoly(b=b, c=c, d=d, e=e)


def detected_rate(r: RateParams) -> float:
    """Rate of detected photons R = eta*k_f*k_ex*k0*km*kp / E in counts/s.

    Identical to eta*k_f*s1 with s1 the stationary excited-state occupation.
    """
    e = characteristic_coefficients(r).e
    if e == 0.0:
        raise DegenerateSystemError("characteristic constant term vanishes")
    return r.eta * r.k_f * r.k_ex * r.k0 * r.km * r.kp / e


def quartic_roots(c: CharPoly) -> np.ndarray:
    """Roots of the relaxation quartic via its companion matrix,
    sorted by real part descending (slowest relaxation first)."""
    roots = np.roots(c.as_array())
    order = np.lexsort((roots.imag, -roots.real))
    return roots[order]


def _g2_amplitudes(roots, k0, km, kp):
    """Per-root amplitudes of s1(t)/s1(inf) = 1 + sum_i c_i exp(root_i t)."""
    c = np.empty(4, dtype=complex)
    for i in range(4):
        others = np.delete(roots, i)
        c[i] = (
            np.prod(others)
            / (k0 * km * kp)
            * (roots[i] + k0)
            * (roots[i] + km)
            * (roots[i] + kp)
            / np.prod(roots[i] - others)
        )
    return c


_ROOT_COLLISION_TOL = 1e-9


def g2_analytic(r: RateParams, tau_s) -> np.ndarray:
    """Closed-form g2(tau), tau in seconds.

    Partial-fraction solution of the reduced kinetics from the post-emission
    state S0=1, normalized by the stationary S1. Near-coincident relaxation
    roots make the partial-fraction denominators blow up, so root pairs
    closer than _ROOT_COLLISION_TOL (relative to the largest root) trigger a
    fallback to the numeric propagator with a warning.
    """
    tau = np.asarray(tau_s, dtype=float)
    if np.any(tau < 0):
        raise InvalidParameterError("tau_grid must be >= 0")
    roots = quartic_roots(characteristic_coefficients(r))
    scale = np.max(np.abs(roots))
    gaps = [abs(roots[i] - roots[j]) for i in range(4) for j in range(i + 1, 4)]
    if scale == 0.0 or min(gaps) < _ROOT_COLLISION_TOL * scale:
        warnings.warn(
            "relaxation roots collide; falling back to numeric propagation",
            RuntimeWarning,
        )
        return g2_numeric(r, tau)
    amps = _g2_amplitudes(roots, r.k0, r.km, r.kp)
    g2 = 1.0 + np.real(np.exp(np.outer(tau, roots)) @ amps)
    return g2


def correlation_components(r: RateParams):
    """The exact four-exponential representation g2 = 1 - sum a_i exp(-l_i t).

    Returns (alphas, lambdas) with lambdas the positive decay constants in
    1/s, sorted ascending. Raises when the relaxation spectrum is complex
    (damped-oscillatory), since no real four-exponential represents it.
    """
    roots = quartic_roots(characteristic_coefficients(r))
    if np.max(np.abs(roots.imag)) > 1e-9 * np.max(np.abs(roots)):
        raise InvalidFitError("relaxation spectrum is complex")
    amps = _g2_amplitudes(roots, r.k0, r.km, r.kp)
    lam = -roots.real
    order = np.argsort(lam)
    return -amps.real[order], lam[order]


def g2_numeric(r: RateParams, tau_s) -> np.ndarray:
    """g2(tau) by exact matrix-exponential propagation of the 5-level ODE.

    The propagator expm(M*tau) is evaluated per delay, so there is no
    step-size error to control; this is the brute-force reference for
    g2_analytic. Initial state is S0=1 (just after a photon detection).
    """
    from scipy.linalg import expm

    tau = np.asarray(tau_s, dtype=float)
    if np.any(tau < 0):
        raise InvalidParameterError("tau_grid must be >= 0")
    m = rate_matrix(r)
    s1_inf = steady_state(r).s1
    if s1_inf == 0.0:
        raise DegenerateSystemError("stationary excited-state population is zero")
    p0 = np.zeros(5)
    p0[0] = 1.0
    out = np.empty(tau.shape)
    flat = tau.ravel()
    res = np.empty(flat.size)
    for i, t in enumerate(flat):
        res[i] = (expm(m * t) @ p0)[1] / s1_inf
    return res.reshape(tau.shape)


def extract_rates(fit, detected, eta) -> RateParams:
    """Invert fitted g2 parameters into the six physical rates.

    fit supplies four amplitude/time-constant pairs (alpha_i, tau_i) of
    g2 = 1 - sum alpha_i exp(-t/tau_i), tau_i in ns; detected is the measured
    photon rate in counts/s and eta the collection efficiency.

    The decay constants lambda_i = 1/tau_i give the quartic coefficients
    through Vieta's relations; the triplet depopulation rates come from the
    amplitude-weighted moment sums S_n = sum alpha_i lambda_i^n, which fix
    the elementary symmetric functions of (k0, km, kp):

        e3 = prod(lambda) / S1,  e1 = sum(lambda) - S2/S1,
        e2 = C - (B*S2 - S3)/S1.

    k_ex then solves k_ex^2 - Bn*k_ex + (Cn + Rn) = 0 with Bn = B - e1,
    Cn = C - e2 - Bn*e1, Rn = R*E/(e3*eta); the minus branch is taken, which
    assumes pumping slower than the total S1 decay (the quartic is invariant
    under k_ex <-> k_f + k_isc, so the branch choice is a convention).
    Finally k_f = Rn/k_ex and k_isc = Cn/k_ex. Sublevels are labeled by
    lifetime, T0 the longest lived.
    """
    alphas = np.asarray(fit.alphas, dtype=float)
    taus = np.asarray(fit.taus, dtype=float)
    if alphas.shape != (4,) or taus.shape != (4,):
        raise InvalidParameterError("need exactly four (alpha, tau) pairs")
    if np.any(taus <= 0):
        raise InvalidFitError("fitted time constants must be positive")
    if detected <= 0:
        raise InvalidParameterError("detected rate must be positive")
    if not 0.0 < eta <= 1.0:
        raise InvalidParameterError("eta must be in (0, 1]")
    lam = 1e9 / taus

    b_v = lam.sum()
    c_v = sum(lam[i] * lam[j] for i in range(4) for j in range(i + 1, 4))
    e_v = float(np.prod(lam))
    s1 = float(np.sum(alphas * lam))
    s2 = float(np.sum(alphas * lam**2))
    s3 = float(np.sum(alphas * lam**3))
    if s1 <= 0:
        raise InvalidFitError("amplitude moment sum is non-positive")

    e1 = b_v - s2 / s1
    e2 = c_v - (b_v * s2 - s3) / s1
    e3 = e_v / s1
    if not np.isfinite([s1, s2, s3, e1, e2, e3]).all():
        raise InvalidFitError("amplitude moment sums overflow")
    trip = np.roots([1.0, -e1, e2, -e3])
    if np.max(np.abs(trip.imag)) > 1e-6 * np.max(np.abs(trip)):
        raise InvalidFitError("implied triplet rates are complex")
    trip = np.sort(trip.real)
    if trip[0] <= 0:
        raise InvalidFitError("implied triplet rates are not all positive")
    k0, km, kp = trip

    bn = b_v - e1
    cn = c_v - e2 - bn * e1
    rn = detected * e_v / (e3 * eta)
    disc = bn**2 - 4.0 * (cn + rn)
    if disc < 0:
        raise InconsistentFitError(
            "negative discriminant: fit parameters admit no real pump rate"
        )
    k_ex = 0.5 * (bn - np.sqrt(disc))
    if k_ex <= 0:
        raise InvalidFitError("implied pump rate is non-positive")
    k_f = rn / k_ex
    k_isc = cn / k_ex
    if k_isc < 0:
        if k_isc < -1e-9 * (k_f + k_ex):
            raise InvalidFitError("implied ISC rate is negative")
        k_isc = 0.0
    return RateParams(k_ex=k_ex, k_f=k_f, k_isc=k_isc, k0=k0, km=km, kp=kp, eta=eta)


@dataclass(frozen=True)
class CrossSectionFit:
    """Absorption cross-section from the slope of k_ex versus irradiance."""

    sigma_cm2: float
    slope: float  # k_ex per (W/cm^2)
    intercept: float  # 1/s
    residual_rms: float


def kex_from_power(power_w, sigma_cm2, wavelength_nm, focal_area_cm2):
    """Pump rate k_ex = sigma * I / E_photon for focal irradiance I = P/A."""
    if focal_area_cm2 <= 0:
        raise InvalidParameterError("focal_area_cm2 must be positive")
    if wavelength_nm <= 0:
        raise InvalidParameterError("wavelength_nm must be positive")
    irr = np.asarray(power_w, dtype=float) / focal_area_cm2
    return sigma_cm2 * irr / photon_energy_J(wavelength_nm)


def absorption_cross_section(points, wavelength_nm, focal_area_cm2) -> CrossSectionFit:
    """Fit sigma from (power, k_ex) pairs: k_ex = (lambda/hc) sigma I.

    points: iterable of (power_W, k_ex). The fit is a straight line in the
    irradiance I = P/focal_area; the intercept is reported as a consistency
    diagnostic and should be compatible with zero.
    """
    pts = np.asarray(points, dtype=float)
    if focal_area_cm2 <= 0:
        raise InvalidParameterError("focal_area_cm2 must be positive")
    if pts.ndim != 2 or pts.shape[0] < 2:
        raise InvalidParameterError("need at least two (power, k_ex) points")
    if np.unique(pts[:, 0]).size < 2:
        raise InvalidParameterError("powers must not all coincide")
    irr = pts[:, 0] / focal_area_cm2
    slope, intercept = np.polyfit(irr, pts[:, 1], 1)
    resid = pts[:, 1] - (slope * irr + intercept)
    sigma = slope * photon_energy_J(wavelength_nm)
    return CrossSectionFit(
        sigma_cm2=float(sigma),
        slope=float(slope),
        intercept=float(intercept),
        residual_rms=float(np.sqrt(np.mean(resid**2))),
    )


@dataclass(frozen=True)
class EsaFit:
    """Decomposition of the apparent ISC rate into intrinsic and ESA parts."""

    k_isc0: float
    beta: float
    residual_rms: float
    clamped: bool


def esa_fit(points) -> EsaFit:
    """Fit the power dependence of the apparent ISC rate.

    points: iterable of (k_ex, k_isc_apparent). In the extended model the
    rate extracted from g2 at each power is exactly Cn/k_ex = k_isc0 +
    beta*k_ex, so the fit is affine in k_ex with the intrinsic crossing rate
    as intercept. beta < 0 is clamped to zero with a warning (no stimulated
    de-shelving channel in the model).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 3:
        raise InvalidParameterError("need at least three (k_ex, k_isc) points")
    design = np.column_stack([np.ones(len(pts)), pts[:, 0]])
    if np.linalg.matrix_rank(design) < 2:
        raise FitDegenerateError("all k_ex coincide; ESA slope is undetermined")
    coef, *_ = np.linalg.lstsq(design, pts[:, 1], rcond=None)
    k0_isc, beta = float(coef[0]), float(coef[1])
    clamped = False
    if beta < 0:
        warnings.warn("fitted beta < 0; clamped to zero", RuntimeWarning)
        beta = 0.0
        k0_isc = float(np.mean(pts[:, 1]))
        clamped = True
    resid = pts[:, 1] - (k0_isc + beta * pts[:, 0])
    return EsaFit(
        k_isc0=k0_isc,
        beta=beta,
        residual_rms=float(np.sqrt(np.mean(resid**2))),
        clamped=clamped,
    )


def esa_cross_section(beta, sigma_cm2):
    """Secondary absorption cross-section implied by beta: sigma_ESA = beta*sigma.

    Both channels are pumped by the same irradiance, so beta is exactly the
    cross-section ratio.
    """
    return beta * sigma_cm2


def odmr_contrast(r: RateParams, driven="plus") -> float:
    """Fluorescence contrast under saturating microwave drive of one line.

    The driven transition (T0 <-> T+ for "plus", T0 <-> T- for "minus") is
    modeled in the infinite-drive limit: the two sublevel populations are
    equalized, which is equivalent to both draining at the arithmetic mean
    of their depopulation rates. Contrast is (R_mw - R)/R and is positive
    whenever mixing shortens the effective shelf time.
    """
    if driven not in ("plus", "minus"):
        raise InvalidParameterError('driven must be "plus" or "minus"')
    rate = detected_rate(r)
    if rate == 0.0:
        return 0.0
    k_driven = r.kp if driven == "plus" else r.km
    k_eff = 0.5 * (r.k0 + k_driven)
    if driven == "plus":
        r_mw = replace(r, k0=k_eff, kp=k_eff)
    else:
        r_mw = replace(r, k0=k_eff, km=k_eff)
    return (detected_rate(r_mw) - rate) / rate


@dataclass(frozen=True)
class PowerSeriesPoint:
    """One point of a modeled pump-power sweep.

    k_isc is the apparent (power-dependent) crossing rate k_isc0 +
    beta*k_ex, i.e. what a g2 inversion at that power would report.
    """

    power_w: float
    k_ex: float
    k_isc: float
    fluorescence: float
    contrast: float

    def __post_init__(self):
        if self.power_w <= 0:
            raise InvalidParameterError("power must be positive")


def power_sweep_model(base: RateParams, sigma_cm2, beta, powers_w, wavelength_nm,
                      focal_area_cm2, driven="plus"):
    """Steady fluorescence and ODMR contrast versus pump power.

    base supplies the power-independent rates (k_f, k_isc, triplet drains);
    k_ex is set from each power through the cross-section calibration and
    the ESA channel beta feeds T0. With beta > 0 the fluorescence rises,
    peaks and falls while the contrast keeps growing.
    """
    powers = np.asarray(powers_w, dtype=float)
    if powers.ndim != 1:
        raise InvalidParameterError("powers_w must be a list of powers")
    out = []
    for p in powers:
        k_ex = float(kex_from_power(p, sigma_cm2, wavelength_nm, focal_area_cm2))
        r = replace(base, k_ex=k_ex, beta=beta)
        out.append(
            PowerSeriesPoint(
                power_w=float(p),
                k_ex=k_ex,
                k_isc=r.k_isc + beta * k_ex,
                fluorescence=detected_rate(r),
                contrast=odmr_contrast(r, driven=driven),
            )
        )
    return out
