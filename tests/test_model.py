"""Model-level objects: failure patterns, permutations, histories, anonymity."""

import random

import pytest
from helpers import LowestCrashedIndex, compose, cycle, identity, swap
from hypothesis import given, settings
from hypothesis import strategies as st

from anonsim import (
    ABSENT,
    DetectorHistory,
    DetectorSpec,
    FailurePattern,
    OracleProfile,
    Permutation,
    ReceiveLog,
    SystemConfig,
    anonymous_receive,
    correct_set,
    is_anonymous,
    permute_history,
    permute_pattern,
    sample_history,
)
from anonsim.detectors import CRASH_COUNT
from anonsim.model import (
    all_permutations,
    history_from_json,
    history_to_json,
    pattern_from_dict,
    pattern_from_json,
    pattern_to_json,
    random_permutation,
)


def perms(n):
    return st.permutations(list(range(1, n + 1))).map(lambda m: Permutation(tuple(m)))


class TestSystemConfig:
    def test_bounds(self):
        SystemConfig(1, 0)
        with pytest.raises(ValueError):
            SystemConfig(0, 0)
        with pytest.raises(ValueError):
            SystemConfig(3, 3)
        with pytest.raises(ValueError):
            SystemConfig(3, -1)


class TestFailurePattern:
    def test_crashed_set_empty(self):
        assert FailurePattern.of(3, {}).crashed == frozenset()

    def test_crashed_set_single(self):
        assert FailurePattern.of(3, {2: 5}).crashed == frozenset({2})

    def test_crashed_set_union_over_times(self):
        pat = FailurePattern.of(3, {1: 0, 3: 9})
        assert pat.crashed == frozenset({1, 3}) == frozenset().union(*map(pat.at, range(12)))

    def test_monotone(self):
        pat = FailurePattern.of(4, {2: 3, 4: 7})
        for s in range(10):
            for t in range(s, 10):
                assert pat.at(s) <= pat.at(t)

    def test_correct_set(self):
        cfg = SystemConfig(3, 1)
        assert correct_set(FailurePattern.of(3, {}), cfg) == frozenset({1, 2, 3})
        assert correct_set(FailurePattern.of(3, {2: 1}), cfg) == frozenset({1, 3})

    def test_all_crashed_rejected(self):
        with pytest.raises(ValueError):
            FailurePattern.of(2, {1: 0, 2: 0})

    def test_budget_enforced(self):
        with pytest.raises(ValueError):
            correct_set(FailurePattern.of(3, {1: 0, 2: 0}), SystemConfig(3, 1))


class TestEnvironment:
    def test_membership_by_crash_budget(self):
        # an environment's patterns are those `correct_set` admits for its config
        from anonsim import Environment

        env = Environment(SystemConfig(3, 1))
        assert correct_set(FailurePattern.of(3, {}), env.cfg)
        assert correct_set(FailurePattern.of(3, {2: 4}), env.cfg)
        with pytest.raises(ValueError):
            correct_set(FailurePattern.of(3, {1: 0, 2: 0}), env.cfg)
        assert all(correct_set(pat, env.cfg) for pat in env.enumerate_patterns(range(3)))

    def test_enumeration_covers_all_small_patterns(self):
        from anonsim import Environment

        env = Environment(SystemConfig(2, 1))
        pats = list(env.enumerate_patterns([0, 1]))
        # empty pattern, plus each process crashing at either step
        assert len(pats) == 1 + 2 * 2
        assert len(set(pats)) == len(pats)

    def test_sampling_respects_budget(self):
        from anonsim import Environment

        env = Environment(SystemConfig(4, 2))
        rng = random.Random(3)
        for _ in range(50):
            assert len(env.sample(rng, 9).crashed) <= 2


class TestPermutation:
    def test_bijection_required(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 3))

    def test_pattern_identity(self):
        pat = FailurePattern.of(3, {2: 5})
        assert permute_pattern(identity(3), pat) == pat

    def test_pattern_swap(self):
        pat = FailurePattern.of(3, {1: 3})
        moved = permute_pattern(swap(3, 1, 2), pat)
        assert moved == FailurePattern.of(3, {2: 3})

    def test_pattern_size_mismatch(self):
        with pytest.raises(ValueError):
            permute_pattern(identity(2), FailurePattern.of(3, {}))

    @given(perms(4), perms(4), st.dictionaries(st.integers(1, 4), st.integers(0, 6), max_size=3))
    @settings(max_examples=120, deadline=None)
    def test_pattern_composition(self, p1, p2, crashes):
        # oracle: compare the derived crashed sets at every step directly
        pat = FailurePattern.of(4, crashes)
        twice = permute_pattern(p2, permute_pattern(p1, pat))
        composed = permute_pattern(compose(p2, p1), pat)
        for t in range(8):
            assert twice.at(t) == {p2(p1(p)) for p in pat.at(t)}
            assert twice.at(t) == composed.at(t)

    @given(perms(4), st.dictionaries(st.integers(1, 4), st.integers(0, 6), max_size=3))
    @settings(max_examples=80, deadline=None)
    def test_cardinalities_invariant(self, pi, crashes):
        pat = FailurePattern.of(4, crashes)
        moved = permute_pattern(pi, pat)
        assert len(moved.crashed) == len(pat.crashed)
        assert len(moved.correct) == len(pat.correct)

    @given(perms(4))
    @settings(max_examples=60, deadline=None)
    def test_inverse_composition(self, pi):
        ident = identity(4)
        assert compose(pi, pi.inverse()) == ident
        assert compose(pi.inverse(), pi) == ident


def small_history(rows, kind="test"):
    rows = tuple(tuple(r) for r in rows)
    return DetectorHistory(kind, len(rows), len(rows[0]) - 1, rows)


class TestPermuteHistory:
    def test_identity(self):
        h = small_history([(1, 2), (3, 4), (5, 6)])
        assert permute_history(identity(3), h).rows == h.rows

    def test_constant_unchanged(self):
        h = small_history([(7, 7), (7, 7), (7, 7)])
        for pi in all_permutations(3):
            assert permute_history(pi, h).rows == h.rows

    def test_cycle_matches_defining_equation(self):
        h = small_history([("a", "a"), ("b", "b"), ("c", "c")])
        pi = cycle(3, (1, 2, 3))
        moved = permute_history(pi, h)
        for p in (1, 2, 3):
            for t in (0, 1):
                assert moved.at(p, t) == h.at(pi(p), t)

    def test_inverse_round_trip(self):
        h = small_history([(1, 2), (3, 4), (5, 6), (7, 8)])
        for pi in all_permutations(4):
            back = permute_history(pi.inverse(), permute_history(pi, h))
            assert back.rows == h.rows

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            permute_history(identity(2), small_history([(1,), (2,), (3,)]))


class TestAnonymousReceive:
    def log(self):
        log = ReceiveLog({})
        for j, value in ((1, "x"), (2, "y"), (3, "z"), (4, "w")):
            log.record(1, j, 0, value)
        return log

    def test_identity(self):
        assert anonymous_receive(self.log(), identity(4), 1, 2, 0) == "y"

    def test_swap(self):
        pi = swap(4, 1, 2)
        assert anonymous_receive(self.log(), pi, 1, 1, 0) == "y"
        assert anonymous_receive(self.log(), pi, 1, 2, 0) == "x"

    def test_multiset_preserved(self):
        log = self.log()
        rng = random.Random(5)
        plain = sorted(anonymous_receive(log, identity(4), 1, j, 0) for j in range(1, 5))
        for _ in range(20):
            pi = random_permutation(4, rng)
            seen = sorted(anonymous_receive(log, pi, 1, j, 0) for j in range(1, 5))
            assert seen == plain

    def test_any_two_senders_swappable(self):
        log = self.log()
        for j in range(1, 5):
            for k in range(1, 5):
                pi = swap(4, j, k)
                assert anonymous_receive(log, pi, 1, j, 0) == log.values[(1, k, 0)]
                assert anonymous_receive(log, pi, 1, k, 0) == log.values[(1, j, 0)]

    def test_absent_slot(self):
        assert anonymous_receive(self.log(), identity(4), 2, 1, 0) is ABSENT


class TestIsAnonymous:
    def test_count_history_closed_exhaustively(self):
        pat = FailurePattern.of(3, {3: 2})
        spec = DetectorSpec(CRASH_COUNT, 3)
        hist = sample_history(spec, pat, OracleProfile("adversarial", 4), seed=1, horizon=8)
        verdict = is_anonymous(spec, pat, hist)
        assert verdict.anonymous and verdict.tested == 6

    def test_process_naming_detector_breaks(self):
        # outputs the lowest-index crashed process; a swap relabels the crash
        # but not the output value.  The identity and swap(3, 2, 3), which
        # keeps process 1, come first in the search, and leave it closed
        pat = FailurePattern.of(3, {1: 0})
        detector = LowestCrashedIndex(3)
        hist = detector.history(pat, 5)
        verdict = is_anonymous(detector, pat, hist)
        assert not verdict.anonymous
        assert (verdict.violation, verdict.tested) == (swap(3, 1, 2), 3)

    def test_sampled_permutations_above_n4(self):
        # at n = 5 the search tests 100 permutations drawn from a fixed seed
        pat = FailurePattern.of(5, {3: 2})
        spec = DetectorSpec(CRASH_COUNT, 5)
        hist = sample_history(spec, pat, OracleProfile("adversarial", 4), seed=1, horizon=8)
        verdict = is_anonymous(spec, pat, hist)
        assert (verdict.anonymous, verdict.tested) == (True, 100)
        pat = FailurePattern.of(5, {1: 0})
        detector = LowestCrashedIndex(5)
        verdict = is_anonymous(detector, pat, detector.history(pat, 5))
        assert not verdict.anonymous and verdict.violation(1) != 1 and verdict.tested <= 100

    def test_invalid_input_rejected(self):
        pat = FailurePattern.of(3, {1: 0})
        detector = LowestCrashedIndex(3)
        bad = small_history([(2, 2), (2, 2), (2, 2)])
        with pytest.raises(ValueError):
            is_anonymous(detector, pat, bad)


class TestSerialization:
    def test_pattern_round_trip(self):
        cfg = SystemConfig(4, 2)
        pat = FailurePattern.of(4, {2: 5, 4: 1})
        cfg2, pat2 = pattern_from_json(pattern_to_json(cfg, pat))
        assert cfg2 == cfg and pat2 == pat

    @pytest.mark.parametrize("crash", [{"2": 5, "02": 7}, {" 2": 5}, {"+2": 5}, {"2.0": 5}])
    def test_pattern_crash_keys_are_process_numbers(self, crash):
        # one reader for scenarios and pattern files: a key other than str(p)
        # would merge two crashes of one process or be rewritten on output
        with pytest.raises(ValueError, match="crash keys|invalid literal"):
            pattern_from_dict({"n": 3, "f": 2, "crash": crash})
        assert pattern_from_dict({"n": 3, "f": 2, "crash": {"3": 1, "2": 4}})[1] == FailurePattern.of(3, {2: 4, 3: 1})

    def test_pattern_budget_checked_on_load(self):
        with pytest.raises(ValueError):
            pattern_from_json('{"n": 3, "f": 1, "crash": {"1": 0, "2": 0}}')

    def test_history_round_trip_counts(self):
        h = DetectorHistory(CRASH_COUNT, 2, 2, ((0, 1, 1), (1, 1, 1)), convergence=1)
        h2 = history_from_json(history_to_json(h))
        assert h2 == h

    def test_history_round_trip_sets(self):
        rows = ((frozenset(), frozenset({2})), (frozenset({1, 2}), frozenset()))
        h = DetectorHistory("perfect", 2, 1, rows)
        h2 = history_from_json(history_to_json(h))
        assert h2.rows == rows
