from fractions import Fraction

import numpy as np
import pytest

from pauli_simplex.channels import MixtureWeights, three_mix_eigenvalues
from pauli_simplex.choi import WITNESS_TOL, choi_eigenvalues, intermediate_ratios, rhp_witness
from pauli_simplex.oracles import ChoiMatrix, a_matrix, a_matrix_choi, choi_matrix

# exact spectrum bottom of the (a, q, p) = (0.1, 0.45, 0.4) intermediate map:
# ratios are (1/2, 91/92, 19/28) and the smallest eigenvalue is -27/322
WORKED_MIN_EIG = -27.0 / 322.0
#: float spectrum of the same map: IEEE +, - and / only, so the same bits on
#: every platform
WORKED_SPECTRUM = (
    -0.08385093167701868, 0.09472049689440987, 0.4052795031055901, 1.5838509316770186
)


def random_aqp(count, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        a = rng.uniform(0.0, 1.0)
        p = rng.uniform(0.0, 0.49)
        q = rng.uniform(p, 0.499)
        out.append((a, q, p))
    return out


class TestIntermediateRatios:
    def test_identity_when_times_coincide(self):
        assert intermediate_ratios(0.3, 0.2, 0.2) == (1.0, 1.0, 1.0)

    def test_full_map_from_time_zero(self):
        a, q = 0.3, 0.2
        x1, x2, x3 = intermediate_ratios(a, q, 0.0)
        assert x1 == pytest.approx(1 - 2 * q, abs=1e-15)
        assert x2 == pytest.approx(1 - 2 * a * q, abs=1e-15)
        assert x3 == pytest.approx(1 - 2 * (1 - a) * q, abs=1e-15)

    def test_worked_point(self):
        x1, x2, x3 = intermediate_ratios(0.1, 0.45, 0.4)
        assert x1 == pytest.approx(0.5, abs=1e-15)
        assert x2 == pytest.approx(91.0 / 92.0, abs=1e-15)
        assert x3 == pytest.approx(19.0 / 28.0, abs=1e-15)

    def test_quotient_of_blend_eigenvalues(self):
        for a, q, p in random_aqp(50, seed=3):
            ratios = np.array(intermediate_ratios(a, q, p))
            # the two-way blend a Ez + (1-a) Ey as a three-way blend
            w = MixtureWeights(0.0, 1.0 - a, a)
            quotient = three_mix_eigenvalues(w, q) / three_mix_eigenvalues(w, p)
            np.testing.assert_allclose(ratios, quotient, rtol=1e-13)

    def test_ratios_in_unit_interval(self):
        for a, q, p in random_aqp(100, seed=5):
            assert all(0.0 < x <= 1.0 for x in intermediate_ratios(a, q, p))

    def test_rejects_backward_map(self):
        with pytest.raises(ValueError, match="forward"):
            intermediate_ratios(0.1, 0.3, 0.4)


class TestChoiMatrix:
    def test_identity_map(self):
        choi = choi_matrix(1.0, 1.0, 1.0)
        np.testing.assert_allclose(
            np.sort(choi.eigenvalues()), [0.0, 0.0, 0.0, 2.0], atol=1e-14
        )

    def test_trace_is_two_exactly(self):
        for a, q, p in random_aqp(50, seed=9):
            choi = choi_matrix(*intermediate_ratios(a, q, p))
            assert np.trace(choi.matrix).real == 2.0

    def test_antidiagonal_structure(self):
        choi = choi_matrix(0.5, 0.7, 0.9).matrix
        mask = np.zeros((4, 4), dtype=bool)
        for i in range(4):
            mask[i, i] = mask[i, 3 - i] = True
        assert np.abs(choi[~mask]).max() == 0.0

    def test_worked_example_minimum_eigenvalue(self):
        choi = choi_matrix(*intermediate_ratios(0.1, 0.45, 0.4))
        assert choi.eigenvalues()[0] == pytest.approx(WORKED_MIN_EIG, abs=1e-13)
        assert choi.eigenvalues()[0] == pytest.approx(-0.0839, abs=5e-4)

    def test_closed_form_spectrum(self):
        for a, q, p in random_aqp(1000, seed=13):
            ratios = intermediate_ratios(a, q, p)
            numeric = np.sort(choi_matrix(*ratios).eigenvalues())
            closed = choi_eigenvalues(*ratios)
            assert np.abs(numeric - closed).max() < 1e-10

    def test_matrix_is_read_only(self):
        for m in (choi_matrix(0.5, 0.7, 0.9), a_matrix_choi(0.1, 0.45, 0.4)):
            assert not m.matrix.flags.writeable
            with pytest.raises(ValueError):
                m.matrix[0, 0] = 0.0

    def test_leaves_the_callers_array_writable(self):
        m = np.eye(4, dtype=complex)
        held = ChoiMatrix(m)
        m[0, 0] = 2
        assert held.matrix[0, 0] == 1 and m[0, 0] == 2


class TestCompletePositivity:
    def test_identity_is_cp(self):
        # q = p: the intermediate map is the identity, ratios (1, 1, 1)
        report = rhp_witness(0.3, 0.2, 0.2)
        assert report.ratios == (1.0, 1.0, 1.0)
        assert not report.nonmarkovian

    def test_worked_example_is_not_cp(self):
        assert rhp_witness(0.1, 0.45, 0.4).nonmarkovian

    def test_full_map_always_cp(self):
        for a in np.linspace(0.0, 1.0, 50):
            for p in np.linspace(0.0, 0.49, 50):
                choi = choi_matrix(*intermediate_ratios(float(a), float(p), 0.0))
                assert choi.eigenvalues()[0] >= -1e-12

    def test_ratio_bounds_match_spectrum(self):
        # the closed-form spectrum is nonnegative exactly when
        # |x1 +/- x2| <= 1 +/- x3; the numerical spectrum gives the same verdict
        rng = np.random.default_rng(21)
        for _ in range(500):
            x = rng.uniform(-1.0, 1.0, size=3)
            closed = choi_eigenvalues(*x)[0] >= -1e-12
            assert closed == (choi_matrix(*x).eigenvalues()[0] >= -1e-12)

    def test_ratio_bounds_match_spectrum_on_intermediate_maps(self):
        for a, q, p in random_aqp(300, seed=22):
            ratios = intermediate_ratios(a, q, p)
            closed = choi_eigenvalues(*ratios)[0] >= -WITNESS_TOL
            assert closed == (not rhp_witness(a, q, p).nonmarkovian)


class TestWitness:
    def test_worked_example(self):
        report = rhp_witness(0.1, 0.45, 0.4)
        assert report.nonmarkovian
        assert report.min_eigenvalue == pytest.approx(-0.0839, abs=5e-4)

    def test_worked_example_is_exact(self):
        # the closed forms of the ratios and of the spectrum, in exact arithmetic
        a, q, p = Fraction(1, 10), Fraction(9, 20), Fraction(2, 5)
        ratios = (
            (1 - 2 * q) / (1 - 2 * p),
            (1 - 2 * a * q) / (1 - 2 * a * p),
            (1 - 2 * (1 - a) * q) / (1 - 2 * (1 - a) * p),
        )
        assert ratios == (Fraction(1, 2), Fraction(91, 92), Fraction(19, 28))
        assert choi_eigenvalues(*ratios)[0] == Fraction(-27, 322)
        report = rhp_witness(0.1, 0.45, 0.4)
        assert report.ratios == pytest.approx([float(x) for x in ratios], rel=0, abs=1e-15)
        assert report.min_eigenvalue == pytest.approx(WORKED_MIN_EIG, rel=0, abs=1e-15)

    def test_balanced_blend_always_witnessed(self):
        for q, p in [(0.2, 0.1), (0.3, 0.25), (0.45, 0.4), (0.49, 0.01)]:
            assert rhp_witness(0.5, q, p).nonmarkovian

    @pytest.mark.parametrize("a", [0.0, 1.0])
    def test_pure_channels_stay_cp(self, a):
        # semigroup composition: every intermediate map of a single channel
        # is itself a channel
        for q, p in [(0.2, 0.1), (0.45, 0.4), (0.3, 0.3)]:
            report = rhp_witness(a, q, p)
            assert not report.nonmarkovian
            assert report.min_eigenvalue >= -1e-15

    def test_worked_example_spectrum_bits(self):
        report = rhp_witness(0.1, 0.45, 0.4)
        assert report.eigenvalues == WORKED_SPECTRUM
        assert report.min_eigenvalue == WORKED_SPECTRUM[0]

    def test_spectrum_is_the_closed_form(self):
        for a, q, p in [(0.1, 0.45, 0.4), (0.3, 0.2, 0.2), *random_aqp(100, seed=8)]:
            report = rhp_witness(a, q, p)
            assert report.eigenvalues == tuple(choi_eigenvalues(*report.ratios).tolist())
            assert report.min_eigenvalue == report.eigenvalues[0]
            lapack = choi_matrix(*report.ratios).eigenvalues()
            assert np.abs(lapack - report.eigenvalues).max() <= 2e-15

    def test_builds_no_matrix_and_calls_no_linalg(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the witness built a matrix or called np.linalg")

        monkeypatch.setattr("pauli_simplex.oracles.ChoiMatrix", refuse)
        for name in np.linalg.__all__:
            if name != "LinAlgError":
                monkeypatch.setattr(np.linalg, name, refuse)
        assert rhp_witness(0.1, 0.45, 0.4).eigenvalues == WORKED_SPECTRUM

    def test_record_is_immutable_and_comparable(self):
        report = rhp_witness(0.1, 0.45, 0.4)
        assert report == rhp_witness(0.1, 0.45, 0.4)
        assert report != rhp_witness(0.1, 0.45, 0.3)
        assert hash(report) == hash(rhp_witness(0.1, 0.45, 0.4))
        with pytest.raises(AttributeError):
            report.verdict = "MARKOVIAN"

    def test_sweep_finds_ncp_for_any_blend(self):
        rng = np.random.default_rng(33)
        qs = np.linspace(0.4, 0.5, 66)[1:-1]  # 64 interior values of q
        for a in rng.uniform(0.001, 0.999, size=25):
            reports = [rhp_witness(float(a), float(q), 0.4) for q in qs]
            report = min(reports, key=lambda r: r.min_eigenvalue)
            assert report.nonmarkovian
            assert report.min_eigenvalue < -1e-9


class TestTransferMatrixOracle:
    def test_transfer_matrix_at_time_zero_is_identity(self):
        np.testing.assert_allclose(a_matrix(0.4, 0.0), np.eye(4), atol=1e-15)

    def test_transfer_matrix_invertible(self):
        for a in [0.0, 0.3, 1.0]:
            for p in [0.1, 0.45, 0.499]:
                assert abs(np.linalg.det(a_matrix(a, p))) > 1e-12

    def test_matches_closed_form_on_worked_point(self):
        oracle = a_matrix_choi(0.1, 0.45, 0.4)
        closed = choi_matrix(*intermediate_ratios(0.1, 0.45, 0.4))
        assert np.abs(oracle.matrix - closed.matrix).max() < 1e-12
        assert oracle.eigenvalues()[0] == pytest.approx(WORKED_MIN_EIG, abs=1e-12)

    def test_matches_closed_form_elsewhere(self):
        oracle = a_matrix_choi(0.7, 0.3, 0.1)
        closed = choi_matrix(*intermediate_ratios(0.7, 0.3, 0.1))
        assert np.abs(oracle.matrix - closed.matrix).max() < 1e-12

    def test_matches_closed_form_random(self):
        for a, q, p in random_aqp(200, seed=41):
            oracle = a_matrix_choi(a, q, p)
            closed = choi_matrix(*intermediate_ratios(a, q, p))
            assert np.abs(oracle.matrix - closed.matrix).max() < 1e-12

    def test_reports_its_error_up_to_the_singular_guard(self):
        # p approaches 1/2 and the inversion loses about 1/(1 - 2p) in accuracy;
        # only a transfer matrix whose smallest eigenvalue 1 - 2p is below
        # 1e-14 is refused
        rng = np.random.default_rng(43)
        for a in [0.0, 0.1, 0.5, 1.0, *rng.uniform(0.0, 1.0, 4)]:
            for gap in np.logspace(-15, 0, 16):
                p = float((1.0 - gap) / 2.0)
                for f in [0.0, 0.3, 0.9, 0.999]:
                    q = p + f * (0.5 - p)
                    if q >= 0.5:
                        continue
                    if 1.0 - 2.0 * p < 1e-14:
                        with pytest.raises(ValueError, match="singular"):
                            a_matrix_choi(float(a), q, p)
                        continue
                    oracle = a_matrix_choi(float(a), q, p).matrix
                    closed = choi_matrix(*intermediate_ratios(float(a), q, p)).matrix
                    assert np.abs(oracle - closed).max() <= 1e-15 / (1.0 - 2.0 * p)

    def test_coincident_times_give_identity_choi(self):
        oracle = a_matrix_choi(0.3, 0.2, 0.2)
        np.testing.assert_allclose(
            np.sort(oracle.eigenvalues()), [0.0, 0.0, 0.0, 2.0], atol=1e-14
        )
