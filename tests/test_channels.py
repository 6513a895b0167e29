import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pauli_simplex.channels import AXES, MixtureWeights, three_mix_eigenvalues
from pauli_simplex.choi import intermediate_ratios, rhp_witness
from pauli_simplex.oracles import (
    PAULI,
    a_matrix,
    a_matrix_choi,
    apply_pauli_channel,
    bloch_state,
    two_mix_cross_rate,
)

MIXED = bloch_state((0.0, 0.0, 0.0))


def two_way_eigenvalues(a, p):
    """Channel eigenvalues of the two-way blend a Ez + (1-a) Ey."""
    return three_mix_eigenvalues(MixtureWeights(0.0, 1.0 - a, a), p)


def random_bloch_vectors(count, seed=0):
    """Random Bloch vectors drawn uniformly inside the unit ball."""
    rng = np.random.default_rng(seed)
    vecs = rng.normal(size=(count, 3))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    return vecs * rng.uniform(size=(count, 1)) ** (1 / 3)


class TestApplyChannel:
    def test_identity_at_p_zero(self):
        for rho in map(bloch_state, random_bloch_vectors(5)):
            for axis in AXES:
                out = apply_pauli_channel(rho, axis, 0.0)
                np.testing.assert_allclose(out, rho, atol=1e-15)

    def test_full_dephasing_kills_cross_component(self):
        out = apply_pauli_channel(bloch_state((1.0, 0.0, 0.0)), "Z", 0.5)
        np.testing.assert_allclose(out, MIXED, atol=1e-15)

    @pytest.mark.parametrize("axis", AXES)
    @pytest.mark.parametrize("p", [0.0, 0.2, 0.5])
    def test_unital(self, axis, p):
        out = apply_pauli_channel(MIXED, axis, p)
        np.testing.assert_allclose(out, MIXED, atol=1e-15)

    def test_preserves_state_validity(self):
        # Hermitian and unit trace up to rounding, positive within 1e-12
        for rho in map(bloch_state, random_bloch_vectors(20, seed=3)):
            out = apply_pauli_channel(rho, "Y", 0.37)
            np.testing.assert_allclose(out, out.conj().T, atol=1e-15)
            assert np.trace(out) == pytest.approx(1.0, abs=1e-15)
            assert np.linalg.eigvalsh(out).min() >= -1e-12

    def test_bloch_state_round_trip(self):
        # tr(bloch_state(r) sigma_k) = r_k
        for r in random_bloch_vectors(20, seed=5):
            back = [np.trace(bloch_state(r) @ PAULI[k]) for k in AXES]
            np.testing.assert_allclose(back, r, atol=1e-15)

    @pytest.mark.parametrize("p", [-0.01, 0.51, 1.0])
    def test_rejects_p_out_of_range(self, p):
        with pytest.raises(ValueError):
            apply_pauli_channel(MIXED, "X", p)

    def test_rejects_unknown_axis(self):
        with pytest.raises(ValueError):
            apply_pauli_channel(MIXED, "W", 0.1)


class TestMixtureEigenvalues:
    def test_identity_at_p_zero(self):
        eigs = three_mix_eigenvalues(MixtureWeights(0.2, 0.3, 0.5), 0.0)
        assert eigs.tolist() == [1.0, 1.0, 1.0]

    def test_pure_channel(self):
        eigs = three_mix_eigenvalues(MixtureWeights(1.0, 0.0, 0.0), 0.3)
        np.testing.assert_allclose(eigs, [1.0, 0.4, 0.4], atol=1e-15)

    def test_centroid_value(self):
        eigs = three_mix_eigenvalues(MixtureWeights(1 / 3, 1 / 3, 1 / 3), 0.25)
        np.testing.assert_allclose(eigs, [2 / 3, 2 / 3, 2 / 3], atol=1e-15)

    def test_two_mix_pure_cases(self):
        np.testing.assert_allclose(
            two_way_eigenvalues(1.0, 0.2), [0.6, 0.6, 1.0], atol=1e-15
        )
        np.testing.assert_allclose(
            two_way_eigenvalues(0.0, 0.2), [0.6, 1.0, 0.6], atol=1e-15
        )

    def test_two_mix_closed_form(self):
        np.testing.assert_allclose(
            two_way_eigenvalues(0.4, 0.4), [0.2, 0.68, 0.52], atol=1e-15
        )

    def test_two_mix_is_degenerate_three_mix(self):
        # the two-way blend a Ez + (1-a) Ey scales x by 1-2p, y by 1-2ap and
        # z by 1-2(1-a)p
        for a in [0.0, 0.17, 0.5, 0.93, 1.0]:
            for p in [0.0, 0.21, 0.49]:
                np.testing.assert_allclose(
                    two_way_eigenvalues(a, p),
                    [1.0 - 2.0 * p, 1.0 - 2.0 * a * p, 1.0 - 2.0 * (1.0 - a) * p],
                    atol=1e-15,
                )

    def test_mixture_application_matches_eigenvalue_map(self):
        # convex sum of the three channel actions against the state with
        # rescaled Bloch components, on 50 random states
        w = MixtureWeights(0.23, 0.41, 0.36)
        p = 0.31
        eigs = three_mix_eigenvalues(w, p)
        for r in random_bloch_vectors(50, seed=11):
            rho = bloch_state(r)
            mixed = sum(
                wk * apply_pauli_channel(rho, k, p)
                for wk, k in zip(w.as_array(), AXES)
            )
            assert np.abs(mixed - bloch_state(eigs * r)).max() < 1e-12

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
        base = three_mix_eigenvalues(w, p)
        for order in [(1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1)]:
            w_perm = MixtureWeights(*w.as_array()[list(order)])
            reordered = three_mix_eigenvalues(w_perm, p)
            np.testing.assert_allclose(reordered, base[list(order)], atol=1e-12)

    def test_strictly_decreasing_in_p(self):
        w = MixtureWeights(0.5, 0.3, 0.2)
        ps = np.linspace(0.0, 0.49, 25)
        lams = np.array([three_mix_eigenvalues(w, p) for p in ps])
        assert (np.diff(lams, axis=0) < 0).all()


class TestWeights:
    def test_renormalizes_tiny_drift(self):
        w = MixtureWeights(0.1, 0.2, 0.7 + 5e-13)
        assert w.a + w.b + w.c == pytest.approx(1.0, abs=1e-15)

    def test_exact_sum_keeps_raw_values(self):
        # renormalizing by a float sum of exactly 1 changes no bit
        w = MixtureWeights(0.1, 0.3, 0.6)
        assert (w.a, w.b, w.c) == (0.1, 0.3, 0.6)

    @pytest.mark.parametrize("over", [False, True])
    def test_rejects_bad_sum(self, over):
        # a sum off by more than the tolerance is refused on either side of 1
        with pytest.raises(ValueError, match="sum"):
            MixtureWeights(0.5, 0.5, 0.5) if over else MixtureWeights(0.2, 0.2, 0.2)

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            MixtureWeights(-0.1, 0.6, 0.5)

    def test_zero_weights_stay_exact(self):
        w = MixtureWeights(0.0, 0.3, 0.7)
        assert w.a == 0.0


class TestFractionValidation:
    @pytest.mark.parametrize(
        "call,message",
        [
            (lambda: rhp_witness(-0.5, 0.3, 0.2), "mixing fraction a=-0.5 outside [0, 1]"),
            (lambda: two_mix_cross_rate(1.5, 0.1, 1.0), "mixing fraction a=1.5 outside [0, 1]"),
            (lambda: intermediate_ratios(1.5, 0.3, 0.2), "mixing fraction a=1.5 outside [0, 1]"),
            (lambda: a_matrix(2.0, 0.2), "mixing fraction a=2.0 outside [0, 1]"),
            (
                lambda: intermediate_ratios(0.1, 0.3, 0.4),
                "intermediate map runs forward: need p <= q, got p=0.4, q=0.3",
            ),
            (
                lambda: a_matrix_choi(0.1, 0.3, 0.4),
                "intermediate map runs forward: need p <= q, got p=0.4, q=0.3",
            ),
        ],
        ids=[
            "rhp_witness", "two_mix_cross_rate",
            "intermediate_ratios", "a_matrix", "intermediate_ratios_forward",
            "a_matrix_choi_forward",
        ],
    )
    def test_one_message_everywhere(self, call, message):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message
