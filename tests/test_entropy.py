import math
import tracemalloc

import numpy as np
import pytest

import macckit.entropy as entropy
from macckit import (
    JointPmf,
    check_conditional_window,
    check_sliding_window,
    marginal_entropy,
    run_conditional_window_batch,
    run_sliding_window_batch,
    window_entropy_sum,
)
from macckit.params import InputError, InputTypeError


def uniform(sizes):
    return JointPmf(sizes, np.full(sizes, 1.0 / math.prod(sizes)))


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
        with pytest.raises(InputError, match="non-negative"):  # sums to 1.0 in float
            JointPmf((2,), np.array([1.0, -1e-310]))
        with pytest.raises(ValueError):
            JointPmf((2, 3), np.full((2, 2), 0.25))
        with pytest.raises(ValueError):
            JointPmf((2,) * 17, np.zeros((2,) * 17))  # 2^17 outcomes
        with pytest.raises(ValueError):
            JointPmf((2, 0), np.zeros((2, 0)))
        with pytest.raises(InputError, match="^alphabet sizes must be non-empty$"):
            JointPmf((), np.array(1.0))
        for sizes in ((True, 2), (2.0, 2)):  # refused, not coerced
            with pytest.raises(InputError, match="must be an int"):
                JointPmf(sizes, np.full((1, 2), 0.5))
        with pytest.raises(InputError, match="must be an int"):
            JointPmf.random((2.5, 2), np.random.default_rng(0))

    @pytest.mark.parametrize(
        "table", [["a", "b"], [True, False], [0.5 + 0j, 0.5], np.array([0.5, 0.5], dtype=object)]
    )
    def test_table_of_wrong_type_refused(self, table):
        # the table's dtype is checked before it is coerced to float64
        with pytest.raises(InputTypeError, match="^probs must hold ints or floats, got dtype "):
            JointPmf((2,), table)

    def test_int_and_float32_tables_pass(self):
        assert JointPmf((2,), [1, 0]).probs.tolist() == [1.0, 0.0]
        pmf = JointPmf((2,), np.array([0.5, 0.5], dtype=np.float32))
        assert pmf.probs.dtype == np.float64 and not pmf.probs.flags.writeable

    def test_rejects_nan_tables(self):
        # NaN compares False against both the sign and the sum check
        for shape, table in (
            ((2,), [math.nan, math.nan]),
            ((2,), [math.nan, 1.0]),
            ((2, 2), np.full((2, 2), math.nan)),
        ):
            with pytest.raises(InputError, match="sum to nan"):
                JointPmf(shape, np.array(table))

    def test_table_is_frozen(self):
        pmf = uniform((2, 2))
        with pytest.raises(ValueError):
            pmf.probs[0, 0] = 1.0

    def test_random_has_full_support(self):
        pmf = JointPmf.random((2, 3), np.random.default_rng(0))
        assert (pmf.probs > 0).all()
        assert abs(pmf.probs.sum() - 1.0) < 1e-12


class TestMarginalEntropy:
    def test_independent_bits_add(self):
        pmf = uniform((2, 2, 2))
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
        # the joint table holds the zero, which adds 0: uniform over 3 outcomes
        assert marginal_entropy(pmf, [1, 2]) == pytest.approx(math.log2(3), abs=1e-12)

    def test_duplicates_removed(self):
        pmf = uniform((2, 2))
        assert marginal_entropy(pmf, [1, 1]) == marginal_entropy(pmf, [1])

    def test_bad_subsets(self):
        pmf = uniform((2, 2))
        with pytest.raises(ValueError):
            marginal_entropy(pmf, [])
        with pytest.raises(ValueError):
            marginal_entropy(pmf, [0])
        with pytest.raises(ValueError):
            marginal_entropy(pmf, [3])
        for subset in ([1.5], [1, 1.5], [True], [2.0]):
            with pytest.raises(InputError, match="must be an int"):
                marginal_entropy(pmf, subset)

    def test_entropy_bounds(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            pmf = JointPmf.random((2, 3, 2), rng)
            h = marginal_entropy(pmf, [1, 2])
            assert 0.0 <= h <= math.log2(2) + math.log2(3) + 1e-12


class TestWindowEntropySum:
    def test_independent_uniform_is_flat(self):
        pmf = uniform((2, 2, 2))
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
        pmf = uniform((2, 2))
        with pytest.raises(ValueError):
            window_entropy_sum(pmf, 0)
        with pytest.raises(ValueError):
            window_entropy_sum(pmf, 3)
        for s in (1.5, True, 2.0):
            with pytest.raises(InputError, match="must be an int"):
                window_entropy_sum(pmf, s)


class TestSlidingWindowCheck:
    def test_sequence_non_increasing_on_random_pmfs(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            report = check_sliding_window(JointPmf.random((2, 2, 2), rng))
            assert report.passed
            assert report.min_margin == min(report.margins) < max(report.margins)
            for a, b in zip(report.sequence, report.sequence[1:]):
                assert a >= b - 1e-9

    def test_equality_chain_for_independent_uniform(self):
        report = check_sliding_window(uniform((2, 2, 2, 2)))
        assert report.passed
        assert all(abs(m) < 1e-12 for m in report.margins)

    def test_needs_two_variables(self):
        # one variable has no adjacent window lengths: nothing would be checked
        with pytest.raises(ValueError):
            check_sliding_window(uniform((2,)))
        with pytest.raises(ValueError):
            run_sliding_window_batch(1, 2, 2, seed=0)
        # no variable with two values: every entropy is 0, as a batch of alphabet 1
        with pytest.raises(InputError, match="^alphabet must be >= 2, got 1$"):
            check_sliding_window(uniform((1, 1, 1)))
        with pytest.raises(InputError, match="^alphabet must be >= 2, got 1$"):
            check_conditional_window(uniform((1, 1, 2)))
        # one window variable with two values: each scaled average is its entropy
        rng = np.random.default_rng(2)
        for check, sizes in (
            (check_sliding_window, (2, 1, 1)), (check_sliding_window, (3, 1)), (check_conditional_window, (2, 1, 2))
        ):
            with pytest.raises(InputError, match="^alphabet must be >= 2, got 1$"):
                check(JointPmf.random(sizes, rng))

    def test_bad_tolerance(self):
        for tol in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                check_sliding_window(uniform((2, 2)), tol=tol)
            with pytest.raises(ValueError):
                check_conditional_window(uniform((2, 2)), tol=tol)
        # a bool is not a tolerance: True would run as 1.0 and report "tol": true
        pmf = uniform((2, 2, 2))
        for check in (check_sliding_window, check_conditional_window):
            with pytest.raises(InputError, match="tolerance"):
                check(pmf, tol=True)
        for run in (run_sliding_window_batch, run_conditional_window_batch):
            with pytest.raises(InputError, match="tolerance"):
                run(3, 2, 3, 0, tol=True)

    def test_failure_threshold_is_tol(self):
        # a margin fails when it is below -tol: -1.5 tol fails, -0.5 tol and 0 pass
        assert entropy._failures(np.array([[-1.5e-9, -0.5e-9, 0.0]]), 1e-9) == [(0, 1, -1.5e-9)]


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

    def test_zero_probability_conditioner_value_is_skipped(self):
        # dyadic probabilities sum to exactly 1, so the weight-1 slice is the base
        base = JointPmf((2, 2, 2), np.array([16, 4, 4, 2, 2, 2, 1, 1]).reshape(2, 2, 2) / 32)
        table = np.zeros((2, 2, 2, 2))
        table[..., 0] = base.probs  # the conditioner's value 1 has probability 0
        conditional = check_conditional_window(JointPmf((2, 2, 2, 2), table))
        assert conditional.sequence == check_sliding_window(base).sequence

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
            check_conditional_window(uniform((2,)))
        # one conditioned variable leaves one margin, the full set against itself
        rng = np.random.default_rng(5)
        for pmf in (uniform((2, 2)), JointPmf.random((3, 5), rng)):
            with pytest.raises(InputError, match="^K must be >= 2, got 1$"):
                check_conditional_window(pmf)


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

    def test_editing_the_payload_leaves_the_report_alone(self, monkeypatch):
        # negated entropies turn the margins into failures
        entropies = entropy._entropies
        monkeypatch.setattr(entropy, "_entropies", lambda tables: -entropies(tables))
        report = run_sliding_window_batch(3, 2, 2, seed=0)
        payload = report.to_dict()
        payload["failures"][0]["s"] = "tampered"
        assert report.failures[0]["s"] == 1
        assert report.to_dict()["failures"][0]["s"] == 1

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            run_sliding_window_batch(3, 2, 0, seed=0)
        for K, alphabet, trials, seed in (
            (3, 2.0, 3, 0), (3.0, 2, 3, 0), (3, 2, True, 0), (3, 2, 3.0, 0), (3, 2, 3, 1.5), (3, 2, 3, True)
        ):
            for run in (run_sliding_window_batch, run_conditional_window_batch):
                with pytest.raises(InputError, match="must be an int"):
                    run(K, alphabet, trials, seed)

    def test_negative_seed_refused_by_name(self):
        with pytest.raises(InputError, match="seed must be >= 0, got -1"):
            run_sliding_window_batch(3, 2, 1, seed=-1)

    @pytest.mark.parametrize(
        "run, K, alphabet, message",
        [
            (run_sliding_window_batch, 3, 1, "alphabet must be >= 2, got 1"),
            (run_sliding_window_batch, 1, 2, "K must be >= 2, got 1"),
            (run_conditional_window_batch, 1, 2, "K must be >= 2, got 1"),
            (run_conditional_window_batch, 3, 1, "alphabet must be >= 2, got 1"),
        ],
    )
    def test_vacuous_batches_refused_before_drawing(self, monkeypatch, run, K, alphabet, message):
        # alphabet 1 makes every entropy 0; K = 1 leaves one margin of 0
        def drawn(*args, **kwargs):
            raise RuntimeError("a pmf was drawn before the refusal")

        monkeypatch.setattr(JointPmf, "random", drawn)
        with pytest.raises(InputError, match=f"^{message}$"):
            run(K, alphabet, 5, seed=0)

    def test_oversized_alphabet_refused_before_drawing(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(InputError, match="exceeds"):
            JointPmf.random((300,) * 3, rng)  # 27M outcomes, never allocated
        assert rng.bit_generator.state == state

    def test_many_variables_refused_from_17_sizes(self, monkeypatch):
        # 17 sizes of two or more already exceed MAX_OUTCOMES; a longer input is
        # refused without forming its product or handing it to _sizes
        sizes = entropy._sizes

        def bounded(alphabet_sizes):
            assert len(alphabet_sizes) <= 17, f"_sizes given {len(alphabet_sizes)} sizes"
            return sizes(alphabet_sizes)

        monkeypatch.setattr(entropy, "_sizes", bounded)
        for run in (run_sliding_window_batch, run_conditional_window_batch):
            with pytest.raises(InputError, match="exceeds"):
                run(10**6, 2, 1, 0)
            with pytest.raises(InputError, match="^alphabet must be >= 2, got 1$"):
                run(10**6, 1, 1, 0)
        with pytest.raises(InputError, match="exceeds"):
            sizes((2,) * 10**6)
        assert sizes((1,) * 100 + (2,) * 16) == (1,) * 100 + (2,) * 16


def oracle_sequence(pmf, conditional):
    """Per-pmf oracle from marginal_entropy alone: the scaled window sums in
    window order, and for the conditional form their p_w-weighted sum over
    the conditioner's values (summed in the same order as the library)."""
    if not conditional:
        return np.array([window_sum_in_order(pmf, s) for s in range(1, pmf.K + 1)])
    K = pmf.K - 1
    sequence = np.zeros(K)
    for w, p_w in enumerate(pmf.probs.sum(axis=tuple(range(K)))):
        if p_w > 0.0:
            given_w = JointPmf(pmf.alphabet_sizes[:K], pmf.probs[..., w] / p_w)
            sequence += p_w * oracle_sequence(given_w, False)
    return sequence


def window_sum_in_order(pmf, s):
    total = 0
    for i in range(1, pmf.K + 1):
        total += marginal_entropy(pmf, [(i - 1 + j) % pmf.K + 1 for j in range(s)])
    return total / s


def oracle_margins(sequence, conditional):
    return sequence - sequence[-1] if conditional else sequence[:-1] - sequence[1:]


BATCH_CASES = [(3, 2, 9, 5), (4, 3, 7, 1), (5, 2, 6, 2), (2, 4, 11, 3)]


class TestBatchedKernel:
    """The stacked kernel against per-pmf oracles, value for value."""

    @pytest.mark.parametrize("conditional", [False, True])
    @pytest.mark.parametrize("K, alphabet, trials, seed", BATCH_CASES)
    def test_stacked_sequences_equal_per_pmf_oracle(self, K, alphabet, trials, seed, conditional):
        sizes = (alphabet,) * (K + conditional)
        rng = np.random.default_rng(seed)
        pmfs = [JointPmf.random(sizes, rng) for _ in range(trials)]
        sequences, margins = entropy._sequences(np.stack([p.probs for p in pmfs]), conditional)
        for pmf, row, margin_row in zip(pmfs, sequences, margins):
            expected = oracle_sequence(pmf, conditional)
            assert row.tolist() == expected.tolist()
            assert margin_row.tolist() == oracle_margins(expected, conditional).tolist()

    @pytest.mark.parametrize("negate", [False, True])
    @pytest.mark.parametrize("chunk", [1, 4, None])
    @pytest.mark.parametrize("conditional", [False, True])
    @pytest.mark.parametrize("K, alphabet, trials, seed", BATCH_CASES)
    def test_batch_report_equals_per_pmf_oracle(
        self, monkeypatch, K, alphabet, trials, seed, conditional, chunk, negate
    ):
        # chunks of 1 and 4 trials straddle chunk boundaries mid-batch;
        # negated entropies turn the margins into failures on both sides
        sizes = (alphabet,) * (K + conditional)
        if chunk is not None:
            monkeypatch.setattr(entropy, "CHUNK_FLOATS", chunk * math.prod(sizes))
        if negate:
            entropies = entropy._entropies
            monkeypatch.setattr(entropy, "_entropies", lambda tables: -entropies(tables))
        tol = 1e-9
        run = run_conditional_window_batch if conditional else run_sliding_window_batch
        report = run(K, alphabet, trials, seed, tol=tol)

        rng = np.random.default_rng(seed)
        min_margin, failures = math.inf, []
        for trial in range(trials):
            margins = oracle_margins(oracle_sequence(JointPmf.random(sizes, rng), conditional), conditional)
            min_margin = min(min_margin, *margins.tolist())
            failures += [
                {"trial": trial, "s": s, "margin": m}
                for s, m in enumerate(margins.tolist(), 1) if m < -tol
            ]
        assert report.min_margin == min_margin
        assert list(report.failures) == failures
        assert bool(failures) == negate

    @pytest.mark.parametrize("conditional", [False, True])
    def test_single_checks_are_a_batch_of_one(self, conditional):
        # a table with a zero entry, which contributes 0 to every entropy
        table = np.arange(2 * 3 * 2 * 2, dtype=float).reshape(2, 3, 2, 2)
        pmf = JointPmf(table.shape, table / table.sum())
        check = check_conditional_window if conditional else check_sliding_window
        report = check(pmf)
        expected = oracle_sequence(pmf, conditional)
        assert list(report.sequence) == expected.tolist()
        assert list(report.margins) == oracle_margins(expected, conditional).tolist()

    @pytest.mark.parametrize("run, K", [(run_sliding_window_batch, 6), (run_conditional_window_batch, 5)])
    def test_memory_does_not_grow_with_trials(self, monkeypatch, run, K):
        # 4^6 outcomes per table, 4 tables per chunk: 200 unchunked tables would
        # stack 6.5 MB.  CPython's tuple and float free lists, which grow with
        # the number of calls, account for up to about 0.5 MB of either peak.
        monkeypatch.setattr(entropy, "CHUNK_FLOATS", 4 * 4**6)
        run(K, 4, 4, seed=0)  # allocations of a first call are not the batch's
        peaks = []
        for trials in (8, 200):
            tracemalloc.start()
            try:
                assert run(K, 4, trials, seed=0).passed
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] + (1 << 20)
