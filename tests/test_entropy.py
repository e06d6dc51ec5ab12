import math

import numpy as np
import pytest

from macckit import (
    JointPmf,
    check_conditional_window,
    check_sliding_window,
    marginal_entropy,
    run_conditional_window_batch,
    run_sliding_window_batch,
    window_entropy_sum,
)
from macckit.params import InputError


def fully_correlated_bits(K):
    table = np.zeros((2,) * K)
    table[(0,) * K] = 0.5
    table[(1,) * K] = 0.5
    return JointPmf((2,) * K, table)


def window_sum_reversed(pmf, s):
    """Oracle: same cyclic window sum, windows visited in reverse order."""
    total = 0.0
    for i in range(pmf.K, 0, -1):
        window = [((i - 1 + j) % pmf.K) + 1 for j in range(s)]
        total += marginal_entropy(pmf, list(reversed(window)))
    return total / s


class TestJointPmf:
    def test_rejects_bad_tables(self):
        with pytest.raises(ValueError):
            JointPmf((2, 2), np.full((2, 2), 0.3))  # sums to 1.2
        with pytest.raises(ValueError):
            JointPmf((2, 2), np.array([[0.5, 0.6], [0.2, -0.3]]))
        with pytest.raises(ValueError):
            JointPmf((2, 3), np.full((2, 2), 0.25))
        with pytest.raises(ValueError):
            JointPmf((2,) * 17, np.zeros((2,) * 17))  # 2^17 outcomes

    def test_table_is_frozen(self):
        pmf = JointPmf.independent_uniform((2, 2))
        with pytest.raises(ValueError):
            pmf.probs[0, 0] = 1.0

    def test_random_has_full_support(self):
        pmf = JointPmf.random((2, 3), np.random.default_rng(0))
        assert (pmf.probs > 0).all()
        assert abs(pmf.probs.sum() - 1.0) < 1e-12


class TestMarginalEntropy:
    def test_independent_bits_add(self):
        pmf = JointPmf.independent_uniform((2, 2, 2))
        assert marginal_entropy(pmf, [1, 2]) == pytest.approx(2.0, abs=1e-12)
        assert marginal_entropy(pmf, [3]) == pytest.approx(1.0, abs=1e-12)

    def test_fully_correlated_collapses(self):
        assert marginal_entropy(fully_correlated_bits(3), [1, 2, 3]) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_third_distribution(self):
        # uniform over {(0,0), (1,1), (1,0)}: P(Y1=0) = 1/3
        table = np.array([[1 / 3, 0.0], [1 / 3, 1 / 3]])
        pmf = JointPmf((2, 2), table)
        expected = -(1 / 3) * math.log2(1 / 3) - (2 / 3) * math.log2(2 / 3)
        assert expected == pytest.approx(0.9182958340544896, abs=1e-12)
        assert marginal_entropy(pmf, [1]) == pytest.approx(expected, abs=1e-12)

    def test_duplicates_removed(self):
        pmf = JointPmf.independent_uniform((2, 2))
        assert marginal_entropy(pmf, [1, 1]) == marginal_entropy(pmf, [1])

    def test_bad_subsets(self):
        pmf = JointPmf.independent_uniform((2, 2))
        with pytest.raises(ValueError):
            marginal_entropy(pmf, [])
        with pytest.raises(ValueError):
            marginal_entropy(pmf, [0])
        with pytest.raises(ValueError):
            marginal_entropy(pmf, [3])

    def test_entropy_bounds(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            pmf = JointPmf.random((2, 3, 2), rng)
            h = marginal_entropy(pmf, [1, 2])
            assert 0.0 <= h <= math.log2(2) + math.log2(3) + 1e-12


class TestWindowEntropySum:
    def test_independent_uniform_is_flat(self):
        pmf = JointPmf.independent_uniform((2, 2, 2))
        for s in (1, 2, 3):
            assert window_entropy_sum(pmf, s) == pytest.approx(3.0, abs=1e-12)

    def test_fully_correlated(self):
        pmf = fully_correlated_bits(3)
        assert window_entropy_sum(pmf, 1) == pytest.approx(3.0, abs=1e-12)
        assert window_entropy_sum(pmf, 2) == pytest.approx(1.5, abs=1e-12)

    def test_matches_reversed_order_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            pmf = JointPmf.random((2, 2, 3, 2), rng)
            for s in range(1, 5):
                assert window_entropy_sum(pmf, s) == pytest.approx(
                    window_sum_reversed(pmf, s), abs=1e-12
                )

    def test_full_window_equals_joint_entropy(self):
        rng = np.random.default_rng(7)
        pmf = JointPmf.random((3, 2, 3), rng)
        assert window_entropy_sum(pmf, 3) == pytest.approx(
            marginal_entropy(pmf, [1, 2, 3]), abs=1e-12
        )

    def test_s_out_of_range(self):
        pmf = JointPmf.independent_uniform((2, 2))
        with pytest.raises(ValueError):
            window_entropy_sum(pmf, 0)
        with pytest.raises(ValueError):
            window_entropy_sum(pmf, 3)


class TestSlidingWindowCheck:
    def test_sequence_non_increasing_on_random_pmfs(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            report = check_sliding_window(JointPmf.random((2, 2, 2), rng))
            assert report.passed
            for a, b in zip(report.sequence, report.sequence[1:]):
                assert a >= b - 1e-9

    def test_equality_chain_for_independent_uniform(self):
        report = check_sliding_window(JointPmf.independent_uniform((2, 2, 2, 2)))
        assert report.passed
        assert all(abs(m) < 1e-12 for m in report.margins)

    def test_report_dict_keys(self):
        report = check_sliding_window(JointPmf.independent_uniform((2, 2)), seed=9)
        payload = report.to_dict()
        assert set(payload) == {"K", "alphabets", "seed", "sequence", "min_margin", "failures"}
        assert payload["K"] == 2 and payload["seed"] == 9

    def test_needs_two_variables(self):
        # one variable has no adjacent window lengths: nothing would be checked
        with pytest.raises(ValueError):
            check_sliding_window(JointPmf.independent_uniform((2,)))
        with pytest.raises(ValueError):
            run_sliding_window_batch(1, 2, 2, seed=0)

    def test_bad_tolerance(self):
        for tol in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                check_sliding_window(JointPmf.independent_uniform((2, 2)), tol=tol)
            with pytest.raises(ValueError):
                check_conditional_window(JointPmf.independent_uniform((2, 2)), tol=tol)


class TestConditionalWindowCheck:
    def test_independent_conditioner_reduces_to_unconditional(self):
        rng = np.random.default_rng(3)
        base = JointPmf.random((2, 2, 2), rng)
        # append an independent fair conditioner as the last variable
        table = np.stack([base.probs / 2, base.probs / 2], axis=-1)
        pmf = JointPmf((2, 2, 2, 2), table)
        conditional = check_conditional_window(pmf)
        unconditional = check_sliding_window(base)
        assert conditional.sequence == pytest.approx(unconditional.sequence, abs=1e-12)
        assert conditional.passed

    def test_variables_equal_to_conditioner_give_zero_chain(self):
        # Z_k all equal to W: conditional entropies vanish, equality holds
        K = 3
        table = np.zeros((2,) * (K + 1))
        table[(0,) * (K + 1)] = 0.5
        table[(1,) * (K + 1)] = 0.5
        report = check_conditional_window(JointPmf((2,) * (K + 1), table))
        assert report.passed
        assert all(abs(x) < 1e-12 for x in report.sequence)

    def test_random_batch_passes(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            report = check_conditional_window(JointPmf.random((2, 2, 2, 2), rng))
            assert report.passed

    def test_needs_a_conditioned_variable(self):
        with pytest.raises(ValueError):
            check_conditional_window(JointPmf.independent_uniform((2,)))


class TestBatches:
    def test_sliding_batch_deterministic(self):
        a = run_sliding_window_batch(3, 2, 25, seed=4)
        b = run_sliding_window_batch(3, 2, 25, seed=4)
        assert a == b
        assert a.passed and a.min_margin > 0

    def test_conditional_batch(self):
        report = run_conditional_window_batch(3, 2, 25, seed=4)
        assert report.passed
        assert report.min_margin >= 0.0  # equality at the full window

    def test_batch_dict_keys(self):
        payload = run_sliding_window_batch(3, 2, 5, seed=0).to_dict()
        for key in ("K", "alphabets", "seed", "trials", "min_margin", "failures"):
            assert key in payload
        assert payload["alphabets"] == [2, 2, 2]

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            run_sliding_window_batch(3, 2, 0, seed=0)

    def test_negative_seed_refused_by_name(self):
        with pytest.raises(InputError, match="seed must be >= 0, got -1"):
            run_sliding_window_batch(3, 2, 1, seed=-1)

    def test_oversized_alphabet_refused_before_drawing(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(InputError, match="exceeds"):
            JointPmf.random((300,) * 3, rng)  # 27M outcomes, never allocated
        assert rng.bit_generator.state == state

    def test_oversized_uniform_refused_before_allocating(self, monkeypatch):
        import macckit.entropy as entropy

        def allocated(*args, **kwargs):
            raise RuntimeError("table allocated before the size check")

        monkeypatch.setattr(entropy.np, "full", allocated)
        with pytest.raises(InputError, match="exceeds"):
            JointPmf.independent_uniform((2,) * 17)
