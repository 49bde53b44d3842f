import numpy as np
import pytest

from defectkit.errors import InvalidParameterError, SingularGeometryError
from defectkit.defect_model import (
    C1H,
    C2V,
    _MO_TABLE,
    VacancyGeometry,
    _characters,
    candidate_filter,
    classify_pairs,
    dipole_estimate,
    dipole_selection,
    point_group,
    principal_axes,
    spinspin_tensor,
    structure_shortlist,
    tilt_angle,
)


# the conventional irrep listing of the four MOs
LISTED = {"a1": "A1", "a1'": "A2", "b1": "B1", "b2": "B2"}


class TestMoBasis:
    def test_c2v_listed_labels(self):
        # the characters follow the listing for all MOs but a1'
        differ = [label for label, coeffs in _MO_TABLE.items()
                  if C2V.label(_characters(coeffs)) != LISTED[label]]
        assert differ == ["a1'"]

    def test_character_derived_irreps(self):
        # c3 + c4 is even under every group operation: a second A1
        labels = {label: C2V.label(_characters(c)) for label, c in _MO_TABLE.items()}
        assert labels == {"a1": "A1", "a1'": "A1", "b1": "B1", "b2": "B2"}

    def test_c1h_descent_of_listed_labels(self):
        # restriction to C1h: A1, B1 -> A' and A2, B2 -> A''
        listed = sorted(C1H.label(C2V.characters[irrep]) for irrep in LISTED.values())
        assert listed == ["A'", "A'", "A''", "A''"]

    def test_orthogonality(self):
        mos = [np.asarray(c) for c in _MO_TABLE.values()]
        for i in range(4):
            for j in range(i + 1, 4):
                assert mos[i] @ mos[j] == 0

    def test_unknown_group(self):
        with pytest.raises(InvalidParameterError):
            point_group("D3d")


class TestDipoleSelection:
    def test_c2v_table(self):
        assert dipole_selection("A1", C2V) == ("x",)
        assert dipole_selection("B1", C2V) == ("z",)
        assert dipole_selection("B2", C2V) == ("y",)
        assert dipole_selection("A2", C2V) == ()

    def test_c1h_table(self):
        assert set(dipole_selection("A1", C1H)) == {"x", "z"}
        assert set(dipole_selection("B1", C1H)) == {"x", "z"}
        assert dipole_selection("B2", C1H) == ("y",)
        assert dipole_selection("A2", C1H) == ("y",)

    def test_native_c1h_labels(self):
        assert set(dipole_selection("A'", C1H)) == {"x", "z"}
        assert dipole_selection("A''", C1H) == ("y",)

    def test_bad_irrep(self):
        with pytest.raises(InvalidParameterError):
            dipole_selection("E", C2V)


class TestDipoleEstimate:
    geom = VacancyGeometry.tetrahedral()

    def test_a1_b1_along_z(self):
        est = dipole_estimate("a1", "b1", self.geom)
        assert est.order == "onsite"
        assert np.allclose(np.abs(est.direction), [0, 0, 1], atol=1e-12)
        # magnitude 2<z>_1 with unnormalized +-1 MO coefficients
        assert np.isclose(est.magnitude, 2 * self.geom.positions[0, 2],
                          rtol=1e-12)

    def test_a1p_b1_along_z(self):
        est = dipole_estimate("a1'", "b1", self.geom)
        assert np.allclose(np.abs(est.direction), [0, 0, 1], atol=1e-12)
        assert est.order == "overlap"

    def test_a1p_b2_along_y(self):
        est = dipole_estimate("a1'", "b2", self.geom)
        assert np.allclose(np.abs(est.direction), [0, 1, 0], atol=1e-12)
        assert est.order == "onsite"

    def test_b1_b2_forbidden_in_c2v(self):
        est = dipole_estimate("b1", "b2", self.geom)
        assert est.forbidden
        assert est.magnitude == 0.0


MO_LABELS = ("a1", "a1'", "b1", "b2")


def _spinspin_loop(homo, lumo, geom):
    """spinspin_tensor as a plain double loop over the ordered orbital pairs."""
    ca = np.asarray(_MO_TABLE[homo], dtype=float)
    cb = np.asarray(_MO_TABLE[lumo], dtype=float)
    out = np.zeros((3, 3))
    for i in range(4):
        for j in range(4):
            w = ca[i] ** 2 * cb[j] ** 2
            if i == j or w == 0.0:
                continue
            r = geom.positions[j] - geom.positions[i]
            dist = np.linalg.norm(r)
            if dist < 1e-12:
                raise SingularGeometryError(
                    f"orbitals c{i+1} and c{j+1} have coincident positions"
                )
            cov = geom.covariance(min(i, j))
            out += w * (np.eye(3) / dist**3 - 3.0 * (np.outer(r, r) - cov) / dist**5)
    out *= 2.0
    out = 0.5 * (out + out.T)
    return out - np.trace(out) / 3.0 * np.eye(3)


class TestSpinSpinTensor:
    # the ids name the covariance rule, "leading" (the pair's first orbital)
    @pytest.mark.parametrize("theta", [None, 35.26, 45.0, 50.0, 60.0],
                             ids=lambda theta: f"{theta}-leading")
    @pytest.mark.parametrize("delta", [0.0, 0.02, 0.05])
    def test_matches_double_loop(self, theta, delta):
        if theta is None:
            geom = VacancyGeometry.tetrahedral(delta=delta)
        else:
            geom = VacancyGeometry(theta, delta=delta)
        for homo in MO_LABELS:
            for lumo in MO_LABELS:
                want = _spinspin_loop(homo, lumo, geom)
                got = spinspin_tensor(homo, lumo, geom).matrix
                assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())

    @pytest.mark.parametrize("theta", [90.0], ids=["both"])
    def test_coincident_pair_named_in_loop_order(self, theta):
        # theta = 90 puts c1 on c2 and c3 on c4
        geom = VacancyGeometry(theta)
        for homo in MO_LABELS:
            for lumo in MO_LABELS:
                try:
                    _spinspin_loop(homo, lumo, geom)
                except SingularGeometryError as err:
                    with pytest.raises(SingularGeometryError) as got:
                        spinspin_tensor(homo, lumo, geom)
                    assert str(got.value) == str(err)
                else:
                    spinspin_tensor(homo, lumo, geom)

    def test_two_parameter_tilt_form(self):
        # 45-degree in-plane bonds: the covariance components obey
        # |Delta_xz| = Delta_xx = Delta_zz and the tensor collapses to
        # [[A-B, 0, B], [0, A, 0], [B, 0, -2A+B]]
        delta = 0.04
        geom = VacancyGeometry(45.0, delta=delta)
        t = spinspin_tensor("a1", "b1", geom).matrix
        a, b = t[1, 1], t[0, 2]
        want = np.array([[a - b, 0, b], [0, a, 0], [b, 0, -2 * a + b]])
        assert np.allclose(t, want, atol=1e-12)
        # with the separation rho = 2<z>_1: B = 12*Delta_xz/rho^5 exactly
        # and A = 4/rho^3 at leading order in Delta
        rho = 2 * geom.positions[0, 2]
        dxz = geom.covariance(0)[0, 2]
        assert np.isclose(b, 12 * dxz / rho**5, rtol=1e-12)
        assert np.isclose(a, 4 / rho**3 - 4 * delta / rho**5, rtol=1e-12)
        assert abs(a - 4 / rho**3) < 1.1 * 4 * delta / rho**5

    def test_point_dipole_limit_axial(self):
        geom = VacancyGeometry(45.0)
        t = spinspin_tensor("a1", "b1", geom).matrix
        a = t[0, 0]
        assert np.allclose(t, np.diag([a, a, -2 * a]), atol=1e-12)

    def test_traceless_symmetric_all_pairs(self):
        geom = VacancyGeometry.tetrahedral(delta=0.05)
        for homo, lumo in [("a1", "a1'"), ("a1", "b1"), ("a1'", "b1"),
                           ("a1", "b2"), ("a1'", "b2"), ("b1", "b2")]:
            m = spinspin_tensor(homo, lumo, geom).matrix
            assert abs(np.trace(m)) < 1e-12 * np.linalg.norm(m)
            assert np.allclose(m, m.T, atol=1e-14)

    def test_coincident_positions_rejected(self):
        with pytest.raises(SingularGeometryError,
                           match="orbitals c1 and c2 have coincident positions"):
            spinspin_tensor("a1", "b1", VacancyGeometry(90.0))

    def test_frequency_conversion_scale(self):
        from defectkit.constants import SPIN_SPIN_PREFACTOR_MHZ_NM3
        geom = VacancyGeometry.tetrahedral()
        t = spinspin_tensor("a1", "b1", geom)
        f = t.frequency_mhz(bond_length_nm=0.154)
        assert np.allclose(f, SPIN_SPIN_PREFACTOR_MHZ_NM3 * t.matrix / 0.154**3,
                           rtol=1e-12)
        # dipolar prefactor is a few tens of MHz nm^3
        assert 30.0 < SPIN_SPIN_PREFACTOR_MHZ_NM3 < 50.0


class TestPrincipalAxes:
    def test_axial_tensor(self):
        from defectkit.defect_model import SpinSpinTensor
        t = SpinSpinTensor(np.diag([1.0, 1.0, -2.0]))
        frame = principal_axes(t)
        assert frame.axial
        assert frame.e_zfs == 0.0
        assert np.allclose(np.abs(frame.major_axis), [0, 0, 1], atol=1e-12)
        assert np.isclose(frame.d_zfs, -3.0, rtol=1e-12)

    def test_reconstruction_roundtrip(self):
        from defectkit.defect_model import SpinSpinTensor
        rng = np.random.default_rng(17)
        for _ in range(20):
            m = rng.normal(size=(3, 3))
            m = 0.5 * (m + m.T)
            m -= np.trace(m) / 3 * np.eye(3)
            frame = principal_axes(SpinSpinTensor(m))
            evals, evecs = np.linalg.eigh(m)
            recon = evecs @ np.diag(evals) @ evecs.T
            assert np.allclose(recon, m, atol=1e-10)
            assert frame.e_zfs >= 0

    def test_rotation_covariance(self):
        from defectkit.defect_model import SpinSpinTensor
        from defectkit.spin_hamiltonian import rotation_matrix
        rng = np.random.default_rng(18)
        m = rng.normal(size=(3, 3))
        m = 0.5 * (m + m.T)
        m -= np.trace(m) / 3 * np.eye(3)
        rot = rotation_matrix([1.0, 2.0, -0.5], 0.9)
        f0 = principal_axes(SpinSpinTensor(m))
        f1 = principal_axes(SpinSpinTensor(rot @ m @ rot.T))
        assert np.isclose(f0.d_zfs, f1.d_zfs, rtol=1e-10)
        assert np.isclose(f0.e_zfs, f1.e_zfs, atol=1e-10)
        dot = abs(f1.major_axis @ (rot @ f0.major_axis))
        assert np.isclose(dot, 1.0, atol=1e-10)


class TestTiltAngle:
    def test_no_covariance_no_tilt(self):
        first, exact = tilt_angle(1.0, 0.0)
        assert first == 0.0 and exact == 0.0

    def test_small_ratio_agreement(self):
        a = 1.0
        first, exact = tilt_angle(a, 0.01 * a)
        assert np.isclose(first, -0.01 / 2.98, rtol=1e-12)
        assert abs(first - exact) < 0.05 * abs(first)

    def test_large_ratio_disagreement(self):
        first, exact = tilt_angle(1.0, 0.5)
        assert abs(first - exact) > 0.05 * abs(exact)

    def test_quadratic_convergence(self):
        # |first - exact| / (B/A)^2 stays bounded as B/A -> 0
        a = 1.0
        ratios = np.geomspace(1e-4, 1e-2, 9)
        bounds = []
        for r in ratios:
            first, exact = tilt_angle(a, r * a)
            bounds.append(abs(first - exact) / r**2)
        assert max(bounds) < 1.0

    def test_exact_matches_principal_axes(self):
        from defectkit.defect_model import SpinSpinTensor
        a, b = 1.0, 0.02
        _, exact = tilt_angle(a, b)
        t = np.array([[a - b, 0, b], [0, a, 0], [b, 0, -2 * a + b]])
        frame = principal_axes(SpinSpinTensor(t))
        v = frame.major_axis * np.sign(frame.major_axis[2])
        measured = np.arctan2(v[0], v[2])
        assert np.isclose(measured, exact, atol=1e-12)

    def test_degenerate_denominator(self):
        with pytest.warns(RuntimeWarning):
            first, exact = tilt_angle(1.0, 1.5)
        assert np.isnan(first)
        assert np.isfinite(exact)


EXPECTED_TABLE = {
    ("a1", "a1'"): ("A1", "x", "x"),
    ("a1", "b1"): ("B1", "z", "z"),
    ("a1'", "b1"): ("B1", "z", "x"),
    ("a1", "b2"): ("B2", "y", "x"),
    ("a1'", "b2"): ("B2", "y", "y"),
    ("b1", "b2"): ("A2", "y", "x"),
}


class TestClassifyPairs:
    def test_reference_table(self):
        records = classify_pairs(C2V, VacancyGeometry.tetrahedral(delta=0.02))
        assert len(records) == 6
        for rec in records:
            irrep, dipole, spin = EXPECTED_TABLE[(rec.homo, rec.lumo)]
            assert rec.excited_irrep == irrep
            assert rec.dipole_axis == dipole
            assert rec.spin_major_axis == spin

    def test_b1b2_dipole_forbidden_in_c2v(self):
        records = classify_pairs(C2V, VacancyGeometry.tetrahedral())
        rec = {(r.homo, r.lumo): r for r in records}[("b1", "b2")]
        assert not rec.dipole_allowed
        assert rec.dipole_axis == "y"  # allowed only on descent to C1h

    def test_dipole_axes_match_estimates(self):
        geom = VacancyGeometry.tetrahedral()
        for rec in classify_pairs(C2V, geom):
            est = dipole_estimate(rec.homo, rec.lumo, geom)
            if est.magnitude > 1e-12:
                axis = ["x", "y", "z"][int(np.argmax(np.abs(est.direction)))]
                assert axis == rec.dipole_axis

    def test_c1h_irrep_labels(self):
        records = classify_pairs(C1H, VacancyGeometry.tetrahedral())
        labels = {(r.homo, r.lumo): r.excited_irrep for r in records}
        assert labels[("a1", "b1")] == "A'"
        assert labels[("a1", "b2")] == "A''"


class TestCandidateFilter:
    records = classify_pairs(C2V, VacancyGeometry.tetrahedral(delta=0.02))

    def test_experimental_constraints(self):
        # dipole and spin axis both along inequivalent <110> directions
        got = candidate_filter(self.records, dipole_axes=("z", "y"),
                               spin_axes=("z", "y"))
        assert {(r.homo, r.lumo) for r in got} == {("a1", "b1"), ("a1'", "b2")}

    def test_coalignment_keeps_both(self):
        got = candidate_filter(self.records, dipole_axes=("z", "y"),
                               spin_axes=("z", "y"), require_coalignment=True)
        assert {(r.homo, r.lumo) for r in got} == {("a1", "b1"), ("a1'", "b2")}

    def test_no_constraints(self):
        assert len(candidate_filter(self.records)) == 6

    def test_impossible_constraints(self):
        got = candidate_filter(self.records, dipole_axes=("x",), spin_axes=("y",))
        assert got == []


class TestStructureShortlist:
    def test_four_electrons(self):
        got = structure_shortlist(4)
        assert [(s.label, s.symmetry) for s in got] == [
            ("[Si]CV", "C1h"), ("[Si]V[Si]", "C2v")
        ]

    def test_six_electrons(self):
        got = structure_shortlist(6)
        assert [(s.label, s.symmetry) for s in got] == [
            ("[O]CV", "C1h"), ("[N]-", "C1h"), ("[O]V[Si]", "C1h")
        ]

    def test_odd_count_rejected(self):
        with pytest.raises(InvalidParameterError, match="singlet"):
            structure_shortlist(5)

    def test_unsupported_even_count(self):
        with pytest.raises(InvalidParameterError):
            structure_shortlist(8)


class TestVacancyGeometry:
    def test_tetrahedral_angles(self):
        geom = VacancyGeometry.tetrahedral()
        pos = geom.positions
        for i in range(4):
            assert np.isclose(np.linalg.norm(pos[i]), 1.0, rtol=1e-12)
            for j in range(i + 1, 4):
                assert np.isclose(pos[i] @ pos[j], -1.0 / 3.0, atol=1e-12)

    def test_symmetry_validation(self):
        # the sites are C2v-symmetric by construction: c1, c2 in the xz plane,
        # mirrored through xy; c3, c4 mirrored through xz
        for theta in (0.0, 35.26, 45.0, 60.0, 90.0):
            pos = VacancyGeometry(theta).positions
            assert pos[0, 1] == pos[1, 1] == 0.0
            assert np.array_equal(pos[1], pos[0] * [1, 1, -1])
            assert np.array_equal(pos[3], pos[2] * [1, -1, 1])

    def test_negative_delta_refused(self):
        with pytest.raises(InvalidParameterError, match="delta must be non-negative"):
            VacancyGeometry.tetrahedral(delta=-0.01)
