from itertools import combinations

import numpy as np
import pytest

from defectkit.constants import MU_B_MHZ_PER_G
from defectkit.errors import InvalidParameterError
from defectkit.spin_hamiltonian import (
    FieldVec,
    ZfsParams,
    angular_sweep,
    fit_odmr,
    orientation_family,
    plane_basis,
    rotation_matrix,
    transition_frequencies,
    zero_field_lines,
)
from oracles import build_hamiltonian

B0 = FieldVec([0.0, 0.0, 0.0])


def eig_oracle(h):
    """Characteristic-polynomial eigenvalues, independent of eigvalsh."""
    tr = np.trace(h).real
    tr2 = np.trace(h @ h).real
    c2 = 0.5 * (tr**2 - tr2)
    det = np.linalg.det(h).real
    roots = np.roots([1.0, -tr, c2, -det])
    return np.sort(roots.real)


class TestBuildHamiltonian:
    def test_zero_field_closed_form(self):
        p = ZfsParams(D=1135.0, E=139.0)
        ev = np.linalg.eigvalsh(build_hamiltonian(p, B0))
        want = np.sort([-2 * 1135 / 3, 1135 / 3 - 139, 1135 / 3 + 139])
        assert np.allclose(ev, want, atol=1e-9)

    def test_null_parameters_give_zero_matrix(self):
        h = build_hamiltonian(ZfsParams(D=0.0, E=0.0), B0)
        assert np.max(np.abs(h)) == 0.0

    def test_axial_field_along_z(self):
        p = ZfsParams(D=1135.0, E=0.0, g=2.0)
        h = build_hamiltonian(p, FieldVec([0, 0, 100.0]))
        ev = np.linalg.eigvalsh(h)
        zeeman = 2.0 * MU_B_MHZ_PER_G * 100.0
        want = np.sort([-2 * 1135 / 3, 1135 / 3 - zeeman, 1135 / 3 + zeeman])
        assert np.allclose(ev, want, atol=1e-9)

    def test_hermitian_and_traceless(self):
        p = ZfsParams(D=987.0, E=55.0, g=2.1)
        h = build_hamiltonian(p, FieldVec([12.0, -34.0, 56.0]))
        assert np.max(np.abs(h - h.conj().T)) < 1e-12
        assert abs(np.trace(h)) < 1e-9
        assert abs(np.sum(np.linalg.eigvalsh(h))) < 1e-9

    def test_rejects_bad_axes(self):
        with pytest.raises(InvalidParameterError):
            ZfsParams(D=1.0, E=0.0, axes=np.array([[1, 0, 0], [1, 0, 0], [0, 0, 1]]))
        with pytest.raises(InvalidParameterError):
            ZfsParams(D=1.0, E=-1.0)


class TestZeroFieldLines:
    def test_reference_splitting(self):
        lines = zero_field_lines(ZfsParams(D=1135.0, E=139.0))
        assert np.allclose(lines.frequencies, [278.0, 996.0, 1274.0])

    def test_alternate_splitting(self):
        lines = zero_field_lines(ZfsParams(D=1130.0, E=135.0))
        assert np.allclose(lines.frequencies, [270.0, 995.0, 1265.0])

    def test_axial_limit(self):
        lines = zero_field_lines(ZfsParams(D=777.0, E=0.0))
        assert np.allclose(lines.frequencies, [0.0, 777.0, 777.0])

    def test_sum_rule(self):
        lines = zero_field_lines(ZfsParams(D=1135.0, E=139.0)).frequencies
        assert abs(lines[2] - lines[0] - lines[1]) < 1e-9

    @pytest.mark.parametrize("D, E", [
        (1135.0, 139.0), (-1135.0, 139.0), (-777.0, 0.0), (-300.0, 250.0),
        (200.0, 400.0), (-200.0, 400.0), (0.0, 50.0),
    ])
    def test_matches_eigenvalues_for_either_sign_of_d(self, D, E):
        # the lines are differences of the levels -2D/3 and D/3 -+ E; a
        # negative D (oblate ZFS) once gave negative "lines" and a refusal
        p = ZfsParams(D=D, E=E)
        got = zero_field_lines(p).frequencies
        assert np.allclose(got, transition_frequencies(p, B0).frequencies, atol=1e-9)
        assert got[0] >= 0.0


class TestTransitionFrequencies:
    def test_matches_zero_field(self):
        p = ZfsParams(D=1135.0, E=139.0)
        got = transition_frequencies(p, B0).frequencies
        assert np.allclose(got, zero_field_lines(p).frequencies, atol=1e-9)

    def test_against_charpoly_oracle(self):
        p = ZfsParams(D=1135.0, E=139.0)
        b = FieldVec(120.0 * p.axes[2])
        h = build_hamiltonian(p, b)
        ev = eig_oracle(h)
        want = np.sort([ev[1] - ev[0], ev[2] - ev[1], ev[2] - ev[0]])
        got = transition_frequencies(p, b).frequencies
        assert np.allclose(got, want, atol=1e-6)

    def test_fully_degenerate(self):
        got = transition_frequencies(ZfsParams(D=0.0, E=0.0), B0).frequencies
        assert np.allclose(got, 0.0, atol=1e-12)

    def test_largest_is_sum(self):
        p = ZfsParams(D=1135.0, E=139.0)
        f = transition_frequencies(p, FieldVec([40.0, 65.0, -10.0])).frequencies
        assert abs(f[2] - f[0] - f[1]) < 1e-9


def eigvalsh_lines(p, b):
    """Ascending pairwise differences of eigvalsh(build_hamiltonian)."""
    ev = np.linalg.eigvalsh(build_hamiltonian(p, b))
    return np.sort([ev[1] - ev[0], ev[2] - ev[1], ev[2] - ev[0]])


class TestClosedFormLines:
    """The lines from the invariants p and q against eigvalsh."""

    @pytest.mark.parametrize("case", ["generic", "E=0", "B=0", "D=E=0"])
    def test_random_cases_match_eigvalsh(self, case):
        rng = np.random.default_rng(["generic", "E=0", "B=0", "D=E=0"].index(case))
        for _ in range(200):
            D, E = rng.uniform(-3000.0, 3000.0), rng.uniform(0.0, 500.0)
            if case == "E=0":
                E = 0.0
            if case == "D=E=0":
                D, E = 0.0, 0.0
            axes = rotation_matrix(rng.normal(size=3), rng.uniform(0.0, 2 * np.pi))
            p = ZfsParams(D=D, E=E, g=rng.uniform(1.9, 2.1), axes=axes)
            b = rng.normal(size=3) * rng.uniform(0.0, 500.0)
            b = FieldVec(np.zeros(3) if case == "B=0" else b)
            got = transition_frequencies(p, b).frequencies
            assert np.max(np.abs(got - eigvalsh_lines(p, b))) < 1e-9
            assert abs(got[2] - got[0] - got[1]) < 1e-9

    @pytest.mark.parametrize("D, E, b, guarded", [
        (1135.0, 139.0, [40.0, 65.0, -10.0], False),
        (1135.0, 0.0, [0.0, 0.0, 0.0], True),  # lines 0, D, D: a double root
        (1135.0, 1e-4, [0.0, 0.0, 0.0], True),
        (1135.0, 0.0, [0.0, 0.0, 120.0], False),
        (1e300, 0.0, [1.0, 0.0, 0.0], True),  # D^2 past the float range
        (1135.0, 139.0, [1e103, 2e102, 1e102], True),  # p^1.5 past it, q not
    ], ids=["generic", "axial-zero-field", "near-axial-zero-field", "axial-field-along-z",
            "overflowing-D", "overflowing-p"])
    def test_guard_near_double_root(self, monkeypatch, D, E, b, guarded):
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(h):
            calls.append(h.shape)
            return eigvalsh(h)

        p = ZfsParams(D=D, E=E)
        want = eigvalsh_lines(p, FieldVec(b))
        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        got = transition_frequencies(p, FieldVec(b)).frequencies
        assert bool(calls) == guarded
        assert np.max(np.abs(got - want)) <= 1e-9 * max(1.0, want[2])
        assert abs(got[2] - got[0] - got[1]) <= 1e-9 * max(1.0, got[2])

    def test_sweep_matches_eigvalsh(self):
        p = ZfsParams(D=1135.0, E=139.0)
        angles = np.linspace(0.0, 180.0, 361)
        table = angular_sweep(p, 150.0, [0, 0, 1], angles, orientations=orientation_family())
        u, v = plane_basis([0, 0, 1])
        for k, axes in enumerate(orientation_family()):
            pk = ZfsParams(D=p.D, E=p.E, axes=axes)
            for j, a in enumerate(np.deg2rad(angles[::20])):
                b = FieldVec(150.0 * (np.cos(a) * u + np.sin(a) * v))
                assert np.max(np.abs(table.lines[k, 20 * j] - eigvalsh_lines(pk, b))) < 1e-9


class TestFrameCovariance:
    def test_joint_rotation_leaves_spectrum(self):
        rng = np.random.default_rng(3)
        p = ZfsParams(D=1135.0, E=139.0)
        b = FieldVec(rng.normal(size=3) * 50)
        rot = rotation_matrix(rng.normal(size=3), 0.7)
        p_rot = ZfsParams(D=p.D, E=p.E, g=p.g, axes=p.axes @ rot.T)
        b_rot = FieldVec(rot @ b.B)
        ev = np.linalg.eigvalsh(build_hamiltonian(p, b))
        ev_rot = np.linalg.eigvalsh(build_hamiltonian(p_rot, b_rot))
        assert np.allclose(ev, ev_rot, atol=1e-9)


class TestAngularSweep:
    def test_empty_grid_rejected(self):
        p = ZfsParams(D=1135.0, E=139.0)
        with pytest.raises(InvalidParameterError):
            angular_sweep(p, 120.0, [0, 0, 1], [])

    def test_axial_symmetry_perpendicular_field(self):
        # with E=0 and B confined to the defect xy plane, all angles and
        # transverse directions are equivalent
        p = ZfsParams(D=1135.0, E=0.0)
        table = angular_sweep(p, 120.0, plane_normal=[0, 0, 1],
                              angles_deg=np.linspace(0, 180, 19))
        spread = np.ptp(table.lines[0], axis=0)
        assert np.max(spread) < 1e-9

    def test_110_family_degenerate_pairs_in_001_plane(self):
        # of the six <110> orientations, the pairs projecting equally onto
        # (001) produce identical branch sets for a field rotating in (001)
        p = ZfsParams(D=1135.0, E=139.0)
        table = angular_sweep(p, 120.0, plane_normal=[0, 0, 1],
                              angles_deg=np.linspace(0, 180, 37),
                              orientations=orientation_family())
        # [101]/[10-1] project to [100]; [011]/[01-1] project to [010]
        assert np.allclose(table.lines[2], table.lines[3], atol=1e-8)
        assert np.allclose(table.lines[4], table.lines[5], atol=1e-8)
        assert not np.allclose(table.lines[0], table.lines[1], atol=1.0)
        assert table.lines.shape[0] == len(orientation_family()) == 6

    def test_matches_fine_grid_interpolation(self):
        p = ZfsParams(D=1135.0, E=139.0, axes=orientation_family()[0])
        coarse = np.linspace(0.0, 180.0, 19)
        fine = np.linspace(0.0, 180.0, 181)
        t_coarse = angular_sweep(p, 120.0, [0, 0, 1], coarse)
        t_fine = angular_sweep(p, 120.0, [0, 0, 1], fine)
        for k in range(3):
            interp = np.interp(coarse, fine, t_fine.lines[0, :, k])
            assert np.allclose(t_coarse.lines[0, :, k], interp, atol=0.05)


def synthetic_sweep(p, magnitude, angles, rng=None, noise_mhz=0.0):
    table = angular_sweep(p, magnitude, [0, 0, 1], angles)
    rows = []
    for j, a in enumerate(angles):
        for f in table.lines[0, j]:
            rows.append((a, f, max(noise_mhz, 1e-3)))
    rows = np.asarray(rows)
    if rng is not None and noise_mhz > 0:
        rows[:, 1] += rng.normal(scale=noise_mhz, size=len(rows))
    return rows


class TestFitOdmr:
    def test_noiseless_roundtrip(self):
        p = ZfsParams(D=1135.0, E=139.0, axes=orientation_family()[5])
        obs = synthetic_sweep(p, 120.0, np.linspace(0, 180, 37))
        init = ZfsParams(D=1100.0, E=150.0, axes=p.axes)
        res = fit_odmr(obs, init, 120.0)
        assert abs(res.params.D - 1135.0) < 0.01
        assert abs(res.params.E - 139.0) < 0.01
        assert res.rms_mhz < 1e-6

    def test_noisy_recovery(self):
        rng = np.random.default_rng(11)
        p = ZfsParams(D=1135.0, E=139.0, axes=orientation_family()[5])
        errs = []
        for _ in range(10):
            obs = synthetic_sweep(p, 120.0, np.linspace(0, 180, 37),
                                  rng=rng, noise_mhz=1.0)
            init = ZfsParams(D=1120.0, E=130.0, axes=p.axes)
            res = fit_odmr(obs, init, 120.0)
            errs.append(max(abs(res.params.D - 1135.0), abs(res.params.E - 139.0)))
        assert np.median(errs) < 5.0

    def test_null_generator(self):
        p = ZfsParams(D=0.0, E=0.0)
        obs = synthetic_sweep(p, 0.0, np.linspace(0, 180, 13))
        res = fit_odmr(obs, ZfsParams(D=1.0, E=0.5), 0.0)
        assert abs(res.params.D) < 1e-6
        assert abs(res.params.E) < 1e-6

    def test_too_few_points(self):
        with pytest.raises(InvalidParameterError):
            fit_odmr(np.zeros((4, 3)) + [[0, 1, 1]], ZfsParams(D=1.0, E=0.0), 10.0)

    def test_tilt_parameter_exposed(self):
        p = ZfsParams(D=1135.0, E=139.0, axes=orientation_family()[5])
        tilted_axes = p.axes @ rotation_matrix(p.axes[2], np.deg2rad(4.0)).T
        truth = ZfsParams(D=p.D, E=p.E, axes=tilted_axes)
        obs = synthetic_sweep(truth, 120.0, np.linspace(0, 180, 37))
        res = fit_odmr(obs, p, 120.0, fit_tilt=True)
        assert "tilt_z" in res.param_names
        assert res.rms_mhz < 1e-4

    def test_orientation_recovery(self):
        p = ZfsParams(D=1135.0, E=139.0, axes=orientation_family()[5])
        rot = rotation_matrix(p.axes[0], np.deg2rad(3.0))
        truth = ZfsParams(D=p.D, E=p.E, axes=p.axes @ rot.T)
        obs = synthetic_sweep(truth, 120.0, np.linspace(0, 180, 37))
        res = fit_odmr(obs, p, 120.0, fit_orientation=True)
        assert res.param_names == ("D", "E", "rot_x", "rot_y")
        assert res.rms_mhz < 1e-4
        assert abs(res.params.D - 1135.0) < 0.01


def reference_matched_residuals(obs, p, magnitude):
    """Observed minus matched branch (MHz), matching one angle at a time.

    Up to three lines at an angle take the order-preserving choice of
    distinct branches with the least weighted cost (first on a tie); each of
    more than three takes its nearest branch.
    """
    u, v = plane_basis([0, 0, 1])
    out = np.empty(len(obs))
    for a in np.unique(obs[:, 0]):
        rad = np.deg2rad(a)
        pred = transition_frequencies(
            p, FieldVec(magnitude * (np.cos(rad) * u + np.sin(rad) * v))).frequencies
        idx = np.flatnonzero(obs[:, 0] == a)
        idx = idx[np.argsort(obs[idx, 1], kind="stable")]
        f, s = obs[idx, 1], obs[idx, 2]
        if len(idx) <= 3:
            best = min(combinations(range(3), len(idx)),
                       key=lambda c: np.sum(((f - pred[list(c)]) / s) ** 2))
            out[idx] = f - pred[list(best)]
        else:
            out[idx] = f - pred[np.argmin(np.abs(f[:, None] - pred), axis=1)]
    return out


class TestBranchMatching:
    @pytest.mark.parametrize("fit_tilt", [False, True])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_per_angle_reference(self, seed, fit_tilt):
        # 1, 2, 3, 4 and 5 lines per angle, drawn from random branches,
        # noisy, with unequal sigmas and the rows shuffled
        rng = np.random.default_rng(seed)
        truth = ZfsParams(D=1135.0, E=139.0, axes=orientation_family()[seed])
        angles = np.linspace(0.0, 180.0, 25)
        table = angular_sweep(truth, 120.0, [0, 0, 1], angles)
        rows = []
        for j, a in enumerate(angles):
            n = 1 + j % 5
            picks = (np.sort(rng.choice(3, size=n, replace=False)) if n <= 3
                     else np.concatenate([np.arange(3), rng.integers(0, 3, n - 3)]))
            for k in picks:
                rows.append((a, table.lines[0, j, k] + rng.normal(scale=0.3),
                             rng.uniform(0.5, 2.0)))
        obs = np.asarray(rows)[rng.permutation(len(rows))]
        init = ZfsParams(D=1125.0, E=145.0, axes=truth.axes)
        res = fit_odmr(obs, init, 120.0, fit_tilt=fit_tilt)
        assert res.rms_mhz < 1.0
        ref = reference_matched_residuals(obs, res.params, 120.0)
        assert np.allclose(res.residuals, ref, rtol=0, atol=1e-9)


class TestPlaneBasis:
    def test_001_convention(self):
        u, v = plane_basis([0, 0, 1])
        assert np.allclose(u, [1, 0, 0])
        assert np.allclose(v, [0, 1, 0])

    def test_orthonormal_for_any_normal(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = rng.normal(size=3)
            u, v = plane_basis(n)
            assert abs(u @ v) < 1e-12
            assert abs(u @ n / np.linalg.norm(n)) < 1e-12
            assert abs(np.linalg.norm(u) - 1) < 1e-12


class TestOrientationFamily:
    def test_six_members_right_handed(self):
        fam = orientation_family()
        assert len(fam) == 6
        for axes in fam:
            assert np.allclose(axes @ axes.T, np.eye(3), atol=1e-12)
            assert np.linalg.det(axes) > 0
            # z along <110>, x along the orthogonal <100>
            z = np.sort(np.abs(axes[2]))
            assert np.allclose(z, [0, np.sqrt(0.5), np.sqrt(0.5)], atol=1e-12)
            x = np.sort(np.abs(axes[0]))
            assert np.allclose(x, [0, 0, 1], atol=1e-12)
