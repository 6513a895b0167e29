import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pauli_simplex.channels import (
    AXES,
    BlochVector,
    DensityMatrix,
    MAXIMALLY_MIXED,
    MixtureWeights,
    apply_eigenvalue_map,
    apply_pauli_channel,
    semigroup_p,
    three_mix_eigenvalues,
    two_mix_eigenvalues,
)
from pauli_simplex.choi import a_matrix, intermediate_ratios
from pauli_simplex.generator import rate_term, two_mix_cross_rate


def random_states(count, seed=0):
    """Random qubit states drawn uniformly inside the Bloch ball."""
    rng = np.random.default_rng(seed)
    vecs = rng.normal(size=(count, 3))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    vecs *= rng.uniform(size=(count, 1)) ** (1 / 3)
    return [DensityMatrix.from_bloch(BlochVector(*v)) for v in vecs]


class TestSemigroup:
    def test_starts_at_zero(self):
        sp = semigroup_p(1.0, 0.0)
        assert sp.p == 0.0
        assert sp.pdot == 0.5

    def test_long_time_limit(self):
        assert semigroup_p(1.0, 1e9).p == pytest.approx(0.5, abs=1e-15)

    def test_closed_form_value(self):
        # (1 - exp(-1)) / 2 evaluated directly
        assert semigroup_p(2.0, 0.5).p == pytest.approx(0.31606027941427884, abs=1e-15)

    def test_monotone_in_t(self):
        ts = np.linspace(0.0, 5.0, 50)
        ps = [semigroup_p(0.7, t).p for t in ts]
        assert all(b > a for a, b in zip(ps, ps[1:]))
        assert all(p < 0.5 for p in ps)
        assert all(semigroup_p(0.7, t).pdot > 0 for t in ts)

    @pytest.mark.parametrize("r,t", [(0.0, 1.0), (-1.0, 1.0), (1.0, -0.1), (np.nan, 1.0)])
    def test_rejects_bad_inputs(self, r, t):
        with pytest.raises(ValueError):
            semigroup_p(r, t)


class TestApplyChannel:
    def test_identity_at_p_zero(self):
        for rho in random_states(5):
            for axis in AXES:
                out = apply_pauli_channel(rho, axis, 0.0)
                np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-15)

    def test_full_dephasing_kills_cross_component(self):
        rho = DensityMatrix.from_bloch(BlochVector(1.0, 0.0, 0.0))
        out = apply_pauli_channel(rho, "Z", 0.5)
        np.testing.assert_allclose(out.bloch().as_array(), [0.0, 0.0, 0.0], atol=1e-15)

    @pytest.mark.parametrize("axis", AXES)
    @pytest.mark.parametrize("p", [0.0, 0.2, 0.5])
    def test_unital(self, axis, p):
        out = apply_pauli_channel(MAXIMALLY_MIXED, axis, p)
        np.testing.assert_allclose(out.matrix, MAXIMALLY_MIXED.matrix, atol=1e-15)

    def test_preserves_state_validity(self):
        # trace and hermiticity exact, positivity within tolerance; all
        # enforced by the DensityMatrix constructor on the returned value
        for rho in random_states(20, seed=3):
            out = apply_pauli_channel(rho, "Y", 0.37)
            assert np.trace(out.matrix).real == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("p", [-0.01, 0.51, 1.0])
    def test_rejects_p_out_of_range(self, p):
        with pytest.raises(ValueError):
            apply_pauli_channel(MAXIMALLY_MIXED, "X", p)

    def test_rejects_unknown_axis(self):
        with pytest.raises(ValueError):
            apply_pauli_channel(MAXIMALLY_MIXED, "W", 0.1)


class TestMixtureEigenvalues:
    def test_identity_at_p_zero(self):
        eigs = three_mix_eigenvalues(MixtureWeights(0.2, 0.3, 0.5), 0.0)
        assert (eigs.lx, eigs.ly, eigs.lz) == (1.0, 1.0, 1.0)

    def test_pure_channel(self):
        eigs = three_mix_eigenvalues(MixtureWeights(1.0, 0.0, 0.0), 0.3)
        np.testing.assert_allclose(eigs.as_array(), [1.0, 0.4, 0.4], atol=1e-15)

    def test_centroid_value(self):
        eigs = three_mix_eigenvalues(MixtureWeights(1 / 3, 1 / 3, 1 / 3), 0.25)
        np.testing.assert_allclose(eigs.as_array(), [2 / 3, 2 / 3, 2 / 3], atol=1e-15)

    def test_two_mix_pure_cases(self):
        np.testing.assert_allclose(
            two_mix_eigenvalues(1.0, 0.2).as_array(), [0.6, 0.6, 1.0], atol=1e-15
        )
        np.testing.assert_allclose(
            two_mix_eigenvalues(0.0, 0.2).as_array(), [0.6, 1.0, 0.6], atol=1e-15
        )

    def test_two_mix_closed_form(self):
        np.testing.assert_allclose(
            two_mix_eigenvalues(0.4, 0.4).as_array(), [0.2, 0.68, 0.52], atol=1e-15
        )

    def test_two_mix_is_degenerate_three_mix(self):
        for a in [0.0, 0.17, 0.5, 0.93, 1.0]:
            for p in [0.0, 0.21, 0.49]:
                np.testing.assert_allclose(
                    two_mix_eigenvalues(a, p).as_array(),
                    three_mix_eigenvalues(MixtureWeights(0.0, 1.0 - a, a), p).as_array(),
                    atol=1e-15,
                )

    def test_mixture_application_matches_eigenvalue_map(self):
        # convex sum of the three channel actions against the diagonal map,
        # on 50 random states
        w = MixtureWeights(0.23, 0.41, 0.36)
        p = 0.31
        eigs = three_mix_eigenvalues(w, p)
        for rho in random_states(50, seed=11):
            mixed = (
                w.a * apply_pauli_channel(rho, "X", p).matrix
                + w.b * apply_pauli_channel(rho, "Y", p).matrix
                + w.c * apply_pauli_channel(rho, "Z", p).matrix
            )
            diag = apply_eigenvalue_map(rho, eigs).matrix
            assert np.abs(mixed - diag).max() < 1e-12

    @given(
        st.floats(0.01, 0.98),
        st.floats(0.01, 0.98),
        st.floats(1e-3, 0.499),
    )
    @settings(max_examples=60, deadline=None)
    def test_permutation_equivariance(self, a, b, p):
        if a + b >= 0.999:
            return
        w = MixtureWeights(a, b, 1.0 - a - b)
        base = three_mix_eigenvalues(w, p).as_array()
        for order in [(1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1)]:
            permuted = three_mix_eigenvalues(w.permuted(order), p).as_array()
            np.testing.assert_allclose(permuted, base[list(order)], atol=1e-12)

    def test_strictly_decreasing_in_p(self):
        w = MixtureWeights(0.5, 0.3, 0.2)
        ps = np.linspace(0.0, 0.49, 25)
        lams = np.array([three_mix_eigenvalues(w, p).as_array() for p in ps])
        assert (np.diff(lams, axis=0) < 0).all()


class TestWeights:
    def test_renormalizes_tiny_drift(self):
        w = MixtureWeights(0.1, 0.2, 0.7 + 5e-13)
        assert w.a + w.b + w.c == pytest.approx(1.0, abs=1e-15)

    def test_strict_keeps_raw_values(self):
        w = MixtureWeights(0.1, 0.2, 0.7, strict=True)
        assert (w.a, w.b, w.c) == (0.1, 0.2, 0.7)

    @pytest.mark.parametrize("strict", [False, True])
    def test_rejects_bad_sum(self, strict):
        with pytest.raises(ValueError, match="sum"):
            MixtureWeights(0.5, 0.5, 0.5, strict=strict)

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            MixtureWeights(-0.1, 0.6, 0.5)

    def test_zero_weights_stay_exact(self):
        w = MixtureWeights(0.0, 0.3, 0.7)
        assert w.a == 0.0


class TestStateTypes:
    def test_bloch_norm_bound(self):
        with pytest.raises(ValueError, match="length"):
            BlochVector(0.8, 0.8, 0.8)

    def test_density_matrix_round_trip(self):
        bloch = BlochVector(0.1, -0.4, 0.7)
        back = DensityMatrix.from_bloch(bloch).bloch()
        np.testing.assert_allclose(back.as_array(), bloch.as_array(), atol=1e-15)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(np.array([[0.5, 0.3], [0.1, 0.5]], dtype=complex))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2, dtype=complex))

    def test_rejects_negative_state(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityMatrix(np.diag([1.5, -0.5]).astype(complex))


class TestFractionValidation:
    @pytest.mark.parametrize(
        "call,message",
        [
            (lambda: rate_term(1.5, 0.1), "mixing fraction alpha=1.5 outside [0, 1]"),
            (lambda: rate_term(float("nan"), 0.1), "alpha must be finite, got nan"),
            (lambda: two_mix_eigenvalues(-0.5, 0.1), "mixing fraction a=-0.5 outside [0, 1]"),
            (lambda: two_mix_cross_rate(1.5, 0.1, 1.0), "mixing fraction a=1.5 outside [0, 1]"),
            (lambda: intermediate_ratios(1.5, 0.3, 0.2), "mixing fraction a=1.5 outside [0, 1]"),
            (lambda: a_matrix(2.0, 0.2), "mixing fraction a=2.0 outside [0, 1]"),
        ],
        ids=[
            "rate_term", "rate_term_nan", "two_mix_eigenvalues", "two_mix_cross_rate",
            "intermediate_ratios", "a_matrix",
        ],
    )
    def test_one_message_everywhere(self, call, message):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message
