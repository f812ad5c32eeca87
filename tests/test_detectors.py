"""Detector validators, samplers, and the alive count the algorithms read."""

import hashlib
import random
import re
from functools import partial
from types import SimpleNamespace

import pytest
from helpers import LowestCrashedIndex
from pins import GRID_SHA256, GRID_TABLES, VALIDATOR_COUNTS, VALIDATOR_SHA256, grid_digest, validator_digest

from anonsim import (
    CRASH_COUNT,
    EVENTUAL_CRASH_COUNT,
    EVENTUALLY_PERFECT,
    LEADER,
    PERFECT,
    SELF_TRUST,
    DetectorHistory,
    DetectorSpec,
    FailurePattern,
    LiveOracle,
    OracleProfile,
    SystemConfig,
    is_anonymous,
    sample_history,
)
from anonsim import detectors
from anonsim.detectors import ALL_KINDS, BEHAVIORS, _flips, _randints
from anonsim.model import history_to_json
from anonsim.simulator import Ctx


def table(kind, rows):
    rows = tuple(tuple(r) for r in rows)
    return DetectorHistory(kind, len(rows), len(rows[0]) - 1, rows)


def validates(kind, history, pattern):
    return DetectorSpec(kind, history.n).validates(history, pattern)


class TestCrashCountValidator:
    def test_exact_count_everywhere(self):
        pat = FailurePattern.of(3, {3: 0})
        hist = table(CRASH_COUNT, [[1] * 4] * 3)
        assert validates(CRASH_COUNT, hist, pat)

    def test_accuracy_breach_at_start(self):
        pat = FailurePattern.of(3, {3: 0})
        rows = [[2, 1, 1, 1], [1, 1, 1, 1], [1, 1, 1, 1]]
        assert not validates(CRASH_COUNT, table(CRASH_COUNT, rows), pat)

    def test_rise_when_crash_happens(self):
        # crash at step 4; correct processes report it from step 6 on
        pat = FailurePattern.of(3, {3: 4})
        row = [0] * 6 + [1] * 4
        rows = [row, row, [0] * 10]
        assert validates(CRASH_COUNT, table(CRASH_COUNT, rows), pat)

    def test_completeness_needs_tail_at_count(self):
        pat = FailurePattern.of(3, {3: 0})
        rows = [[0] * 4] * 3
        assert not validates(CRASH_COUNT, table(CRASH_COUNT, rows), pat)

    def test_count_before_its_crash_rejected(self):
        # both rows read 1 from step 0, but process 2 crashes at step 5: every
        # pre-crash cell is bounded by |F(t)|, as a perfect table's suspicions
        # are, so this table is no more valid than suspecting {2} from step 0
        pat = FailurePattern.of(2, {2: 5})
        early = table(CRASH_COUNT, [[1] * 7] * 2)
        assert not validates(CRASH_COUNT, early, pat)
        assert not validates(PERFECT, table(PERFECT, [[frozenset({2})] * 7] * 2), pat)
        # the crashing process's own early reading breaks accuracy too
        assert not validates(CRASH_COUNT, table(CRASH_COUNT, [[0] * 5 + [1] * 2, [0, 1] + [0] * 5]), pat)
        assert validates(CRASH_COUNT, table(CRASH_COUNT, [[0] * 5 + [1] * 2, [0] * 5 + [1, 2]]), pat)

    def test_crashed_rows_unconstrained(self):
        pat = FailurePattern.of(3, {3: 0})
        rows = [[1] * 4, [1] * 4, [3, 0, 3, 0]]
        assert validates(CRASH_COUNT, table(CRASH_COUNT, rows), pat)

    def test_range_violation_raises(self):
        # every check of a count table: both validators
        pat = FailurePattern.of(2, {})
        checks = (partial(validates, CRASH_COUNT, pattern=pat), partial(validates, EVENTUAL_CRASH_COUNT, pattern=pat))
        for cell in (3, -1, True, "1"):
            message = re.escape(f"count history cell out of range 0..2: {cell!r}")
            for check in checks:
                with pytest.raises(ValueError, match=message):
                    check(table(CRASH_COUNT, [[0, cell], [0, 0]]))

    def test_empty_pattern_forces_zero(self):
        pat = FailurePattern.of(3, {})
        assert validates(CRASH_COUNT, table(CRASH_COUNT, [[0, 0]] * 3), pat)
        assert not validates(CRASH_COUNT, table(CRASH_COUNT, [[0, 0], [1, 0], [0, 0]]), pat)


class TestEventualCrashCountValidator:
    def test_always_accurate_implies_eventual(self):
        pat = FailurePattern.of(3, {3: 0})
        hist = table(CRASH_COUNT, [[1] * 4] * 3)
        assert validates(CRASH_COUNT, hist, pat)
        assert validates(EVENTUAL_CRASH_COUNT, hist, pat)

    def test_over_suspicion_tolerated_until_convergence(self):
        # everyone suspected for a while, then the true count: eventual yes,
        # permanent no
        pat = FailurePattern.of(3, {3: 2})
        row = [3] * 10 + [1] * 3
        hist = table(EVENTUAL_CRASH_COUNT, [row, row, row])
        assert validates(EVENTUAL_CRASH_COUNT, hist, pat)
        assert not validates(CRASH_COUNT, hist, pat)

    def test_oscillating_tail_rejected(self):
        pat = FailurePattern.of(3, {3: 0})
        row = [1, 2, 1, 2, 1, 2]
        hist = table(EVENTUAL_CRASH_COUNT, [row, row, [0] * 6])
        assert not validates(EVENTUAL_CRASH_COUNT, hist, pat)


class TestSelfTrustValidator:
    def test_single_eventual_self_truster(self):
        pat = FailurePattern.of(3, {})
        rows = [
            [False, True, True, True],
            [True, False, False, False],
            [True, True, False, False],
        ]
        assert validates(SELF_TRUST, table(SELF_TRUST, rows), pat)

    def test_two_self_trusters_rejected(self):
        pat = FailurePattern.of(3, {})
        rows = [[True] * 3, [True] * 3, [False] * 3]
        assert not validates(SELF_TRUST, table(SELF_TRUST, rows), pat)

    def test_crashed_self_truster_ignored(self):
        # the crashed process claims leadership forever; a correct one takes
        # over and the quantifiers never look at the crashed row
        pat = FailurePattern.of(3, {2: 9})
        rows = [
            [False] * 12 + [True] * 3,
            [True] * 15,
            [False] * 15,
        ]
        assert validates(SELF_TRUST, table(SELF_TRUST, rows), pat)

    def test_range_violation(self):
        pat = FailurePattern.of(2, {})
        for cell in (1, None):
            with pytest.raises(ValueError, match=re.escape(f"self-trust history cell is not a bool: {cell!r}")):
                validates(SELF_TRUST, table(SELF_TRUST, [[True, cell], [False, False]]), pat)


class TestSuspectSetValidators:
    def test_current_crash_knowledge_serves_both(self):
        pat = FailurePattern.of(3, {2: 3})
        rows = [[pat.at(t) for t in range(6)] for _ in range(3)]
        hist_p = table(PERFECT, rows)
        assert validates(PERFECT, hist_p, pat)
        assert validates(EVENTUALLY_PERFECT, table(EVENTUALLY_PERFECT, rows), pat)

    def test_early_suspicion_breaks_perfect_only(self):
        pat = FailurePattern.of(3, {2: 3})
        early = [frozenset({2}), frozenset(), frozenset(), frozenset({2}), frozenset({2}), frozenset({2})]
        rest = [pat.at(t) for t in range(6)]
        assert not validates(PERFECT, table(PERFECT, [early, rest, rest]), pat)
        assert validates(EVENTUALLY_PERFECT, table(EVENTUALLY_PERFECT, [early, rest, rest]), pat)

    def test_unsuspected_crash_breaks_completeness(self):
        pat = FailurePattern.of(3, {2: 0})
        empty = [frozenset()] * 4
        assert not validates(PERFECT, table(PERFECT, [empty] * 3), pat)
        assert not validates(EVENTUALLY_PERFECT, table(EVENTUALLY_PERFECT, [empty] * 3), pat)

    def test_range_violation(self):
        pat = FailurePattern.of(2, {})
        for cell in (frozenset({3}), frozenset({0}), {1}, (1,)):
            message = re.escape(f"suspect-set history cell is not a subset of P: {cell!r}")
            for kind in (PERFECT, EVENTUALLY_PERFECT):
                with pytest.raises(ValueError, match=message):
                    validates(kind, table(kind, [[frozenset(), cell], [frozenset(), frozenset()]]), pat)

    def test_tail_suspicion_of_never_crashing_process(self):
        pat = FailurePattern.of(3, {})
        sus = [frozenset(), frozenset({2})]
        ok = [frozenset(), frozenset()]
        assert not validates(PERFECT, table(PERFECT, [sus, ok, ok]), pat)


class TestLeaderValidator:
    def test_constant_correct_leader(self):
        pat = FailurePattern.of(3, {})
        assert validates(LEADER, table(LEADER, [[1, 1], [1, 1], [1, 1]]), pat)

    def test_crashed_leader_rejected(self):
        pat = FailurePattern.of(3, {1: 0})
        assert not validates(LEADER, table(LEADER, [[1, 1], [1, 1], [1, 1]]), pat)

    def test_permanent_disagreement_rejected(self):
        pat = FailurePattern.of(3, {})
        assert not validates(LEADER, table(LEADER, [[1, 1], [2, 2], [1, 1]]), pat)

    def test_range_violation(self):
        pat = FailurePattern.of(3, {})
        for cell in (0, 4, True, None):
            message = re.escape(f"leader history cell is not a process index: {cell!r}")
            with pytest.raises(ValueError, match=message):
                validates(LEADER, table(LEADER, [[1, 1], [1, cell], [1, 1]]), pat)


class TestBrokenWitness:
    # what `DetectorSpec.broken` names when a table breaks its kind's rule
    def broken(self, kind, rows, pat):
        return DetectorSpec(kind, len(rows)).broken(table(kind, rows), pat)

    def test_accuracy_names_its_first_cell_in_row_order(self):
        pat = FailurePattern.of(3, {3: 4})
        assert self.broken(CRASH_COUNT, [[0, 0, 0, 0, 1, 1], [0, 0, 1, 1, 1, 1], [0, 1, 0, 0, 0, 0]], pat) == [(2, 2)]
        assert self.broken(CRASH_COUNT, [[0, 0, 0, 0, 1, 1], [0, 0, 0, 0, 1, 1], [0, 1, 0, 0, 0, 0]], pat) == [(3, 1)]
        assert self.broken(CRASH_COUNT, [[0, 0, 0, 0, 1, 1], [0, 0, 0, 0, 1, 1], [0] * 6], pat) == []

    def test_tail_clauses_name_the_correct_processes_breaking_them(self):
        pat = FailurePattern.of(3, {3: 0})
        assert self.broken(CRASH_COUNT, [[1, 0], [1, 1], [0, 0]], pat) == [1]
        assert self.broken(EVENTUALLY_PERFECT, [[frozenset()] * 2, [frozenset({1, 3})] * 2, [frozenset()] * 2],
                           pat) == [1, 2]
        assert self.broken(SELF_TRUST, [[True, True], [False, True], [True, True]], pat) == [1, 2]
        assert self.broken(SELF_TRUST, [[True, False], [False, False], [True, True]], pat) == [1, 2]
        assert self.broken(LEADER, [[1, 3], [1, 3], [1, 1]], pat) == [1, 2]

    def test_range_names_its_first_cell(self):
        with pytest.raises(detectors.CellRangeError, match=re.escape("out of range 0..2: 3")) as raised:
            self.broken(CRASH_COUNT, [[0, 0], [0, 3]], FailurePattern.of(2, {}))
        assert raised.value.cell == (2, 1)


class TestAliveView:
    """The algorithms read a count table as alive(q, t) = n - H(q, t), the
    reading of `Ctx.alive_count`."""

    def test_complement(self):
        engine = SimpleNamespace(cfg=SystemConfig(4, 1), oracle_read=lambda p: 1)
        assert Ctx(engine, 2).alive_count() == 3
        engine.oracle_read = lambda p: True
        with pytest.raises(TypeError):
            Ctx(engine, 2).alive_count()

    def test_exact_count_gives_correct_count(self):
        pat = FailurePattern.of(4, {4: 0})
        hist = table(CRASH_COUNT, [[1] * 3] * 4)
        assert validates(CRASH_COUNT, hist, pat)
        assert all(4 - v == len(pat.correct) for row in hist.rows for v in row)

    def test_alive_at_least_correct_on_valid_tables(self):
        # permanent accuracy caps the count, so the alive view never dips
        # below the number of correct processes at correct rows
        for seed in range(40):
            pat = FailurePattern.of(4, {2: 2, 4: 5})
            spec = DetectorSpec(CRASH_COUNT, 4)
            hist = sample_history(spec, pat, OracleProfile("adversarial", 6), seed=seed, horizon=10)
            for q in pat.correct:
                assert all(4 - v >= len(pat.correct) for v in hist.row(q))


class TestLiveOracle:
    @pytest.mark.parametrize("crashed", [frozenset(), frozenset({1}), frozenset({1, 3})])
    def test_every_kind_reads_the_crashed_set(self, crashed):
        # counts read |crashed|, suspect sets the crashed set, self-trust
        # trusts the lowest live process and leader names it
        live_min = min({1, 2, 3, 4} - crashed)
        expected = {
            CRASH_COUNT: [len(crashed)] * 4,
            EVENTUAL_CRASH_COUNT: [len(crashed)] * 4,
            SELF_TRUST: [p == live_min for p in range(1, 5)],
            PERFECT: [crashed] * 4,
            EVENTUALLY_PERFECT: [crashed] * 4,
            LEADER: [live_min] * 4,
        }
        assert tuple(expected) == ALL_KINDS
        for kind, reads in expected.items():
            got = [LiveOracle(kind, 4).read(p, 7, crashed) for p in range(1, 5)]
            assert got == reads and list(map(type, got)) == list(map(type, reads)), kind

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_read_along_a_pattern_validates(self, kind):
        # the truthful oracle's table along a crash pattern is a valid history
        pat = FailurePattern.of(4, {1: 2, 3: 5})
        oracle = LiveOracle(kind, 4)
        rows = [[oracle.read(p, t, pat.at(t)) for t in range(9)] for p in range(1, 5)]
        assert validates(kind, table(kind, rows), pat)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown detector kind 'bogus'"):
            LiveOracle("bogus", 3)


PATTERNS = {
    2: [{}, {2: 1}],
    3: [{}, {2: 3}],
    4: [{}, {2: 3}, {1: 0, 4: 5}],
    5: [{}, {2: 3, 5: 6}],
}


class TestSamplers:
    @pytest.mark.parametrize("kind", [CRASH_COUNT, EVENTUAL_CRASH_COUNT, SELF_TRUST, PERFECT, EVENTUALLY_PERFECT, LEADER])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_round_trip_all_kinds(self, kind, n):
        spec = DetectorSpec(kind, n)
        for crashes in PATTERNS[n]:
            if len(crashes) >= n:
                continue
            pat = FailurePattern.of(n, crashes)
            for behavior in BEHAVIORS:
                for seed in range(8):
                    hist = sample_history(spec, pat, OracleProfile(behavior, 7), seed=seed, horizon=12)
                    assert spec.validates(hist, pat), (kind, n, crashes, behavior, seed)

    @pytest.mark.parametrize("kind", [CRASH_COUNT, EVENTUAL_CRASH_COUNT, SELF_TRUST, PERFECT, EVENTUALLY_PERFECT, LEADER])
    def test_round_trip_thousand_samples(self, kind):
        count = 0
        for n in (2, 3, 4, 5):
            spec = DetectorSpec(kind, n)
            for crashes in PATTERNS[n]:
                pat = FailurePattern.of(n, crashes)
                for behavior in BEHAVIORS:
                    for seed in range(100, 100 + 1000 // (4 * len(PATTERNS[n]) * 3) + 1):
                        hist = sample_history(spec, pat, OracleProfile(behavior, 7), seed=seed, horizon=12)
                        assert spec.validates(hist, pat)
                        count += 1
        assert count >= 1000

    def test_hierarchy_permanent_implies_eventual(self):
        pat = FailurePattern.of(4, {3: 2})
        count = DetectorSpec(CRASH_COUNT, 4)
        for seed in range(30):
            hist = sample_history(count, pat, OracleProfile("adversarial", 5), seed=seed, horizon=10)
            assert validates(EVENTUAL_CRASH_COUNT, hist, pat)

    def test_hierarchy_perfect_implies_eventually_perfect(self):
        pat = FailurePattern.of(4, {3: 2})
        spec = DetectorSpec(PERFECT, 4)
        for seed in range(30):
            hist = sample_history(spec, pat, OracleProfile("adversarial", 5), seed=seed, horizon=10)
            assert validates(EVENTUALLY_PERFECT, hist, pat)

    def test_no_crash_forces_zero_count(self):
        pat = FailurePattern.of(3, {})
        spec = DetectorSpec(CRASH_COUNT, 3)
        for behavior in BEHAVIORS:
            hist = sample_history(spec, pat, OracleProfile(behavior, 5), seed=3, horizon=8)
            assert all(v == 0 for row in hist.rows for v in row)

    def test_deterministic_per_seed(self):
        pat = FailurePattern.of(3, {})
        spec = DetectorSpec(SELF_TRUST, 3)
        a = sample_history(spec, pat, OracleProfile("adversarial", 4), seed=11, horizon=9)
        b = sample_history(spec, pat, OracleProfile("adversarial", 4), seed=11, horizon=9)
        c = sample_history(spec, pat, OracleProfile("adversarial", 4), seed=12, horizon=9)
        assert a == b
        assert c.rows != a.rows

    def test_self_trust_single_truster(self):
        pat = FailurePattern.of(3, {2: 1})
        spec = DetectorSpec(SELF_TRUST, 3)
        for seed in range(20):
            hist = sample_history(spec, pat, OracleProfile("adversarial", 4), seed=seed, horizon=9)
            trusting = [q for q in pat.correct if hist.at(q, 9)]
            assert len(trusting) == 1

    def test_pessimistic_eventual_count_not_permanently_valid(self):
        # over-suspects everyone before convergence: a legal eventual history
        # that the permanent validator must reject
        pat = FailurePattern.of(3, {2: 3})
        spec = DetectorSpec(EVENTUAL_CRASH_COUNT, 3)
        hist = sample_history(spec, pat, OracleProfile("pessimistic", 6), seed=2, horizon=10)
        assert validates(EVENTUAL_CRASH_COUNT, hist, pat)
        assert not validates(CRASH_COUNT, hist, pat)

    def test_infeasible_convergence_rejected(self):
        pat = FailurePattern.of(3, {})
        spec = DetectorSpec(CRASH_COUNT, 3)
        with pytest.raises(ValueError):
            sample_history(spec, pat, OracleProfile("optimistic", 20), seed=0, horizon=10)

    def test_crash_beyond_horizon_rejected(self):
        pat = FailurePattern.of(3, {2: 50})
        spec = DetectorSpec(PERFECT, 3)
        with pytest.raises(ValueError):
            sample_history(spec, pat, OracleProfile("optimistic", 0), seed=0, horizon=10)


class TestSamplerDrawOrder:
    def test_tables_pinned(self):
        # every kind and behaviour over a grid of patterns, convergence steps
        # and seeds: any change to the draw order changes this digest, and
        # every table read cell by cell through `at`, in a shuffled order,
        # before its rows exist, agrees with them
        assert grid_digest() == (GRID_TABLES, GRID_SHA256, [])

    def test_randints_matches_randint(self):
        # runs of one top, as the sampler draws them: short runs of every small
        # top, long runs, single cells between runs, and the tops on both sides
        # of the batched path, which reads the top byte of each word for a
        # bound top + 1 of at most 255
        runs = [(top, 5) for top in range(10)]
        runs += [(4, 1500), (0, 1), (7, 700), (3, 1), (2, 1), (0, 300), (127, 1), (128, 2), (5, 0)]
        runs += [(254, 400), (255, 400), (256, 400), (254, 1), (255, 1), (256, 1), (1, 1)]
        for i in range(30):
            ours, theirs = random.Random(f"draw/{i}"), random.Random(f"draw/{i}")
            for top, count in runs:
                drawn = _randints(ours, top, count)
                assert drawn == [theirs.randint(0, top) for _ in range(count)]
                assert all(type(v) is int for v in drawn)
                assert ours.getstate() == theirs.getstate()

    # adversarial suspect-set tables at n=4, crashes at steps 5 and 20,
    # converging at 60 of 80: the digests of their rows as drawn when every
    # pre-convergence cell was a set of its own
    SUSPECT_TABLE_SHA256 = {
        PERFECT: "70966f9816caaf22d09d7a6cc80e771958ec0fedce0694864ac11deae5116190",
        EVENTUALLY_PERFECT: "d5267be8a53eab7c87e1fcbabeb8530c8db30aa163a3e2c80256e268d433beca",
    }

    @staticmethod
    def suspect_table(kind: str) -> DetectorHistory:
        pattern = FailurePattern.of(4, {1: 5, 3: 20})
        return sample_history(DetectorSpec(kind, 4), pattern, OracleProfile("adversarial", 60), seed=7, horizon=80)

    @pytest.mark.parametrize("kind", [PERFECT, EVENTUALLY_PERFECT])
    def test_suspect_table_rows_pinned(self, kind):
        digest = hashlib.sha256(history_to_json(self.suspect_table(kind)).encode()).hexdigest()
        assert digest == self.SUSPECT_TABLE_SHA256[kind]

    @pytest.mark.parametrize("kind", [PERFECT, EVENTUALLY_PERFECT])
    def test_equal_suspect_sets_share_one_object(self, kind):
        table = self.suspect_table(kind)
        cells = [cell for p in range(1, 5) for cell in table.row(p)[:table.convergence]]
        assert len(cells) == 240 and len(set(cells)) > 1
        assert len({id(cell) for cell in cells}) == len(set(cells))

    def test_flips_match_random(self):
        for i in range(30):
            ours, theirs = random.Random(f"flip/{i}"), random.Random(f"flip/{i}")
            for count in (0, 1, 2, 1501, 7, 0, 1, 300):
                drawn = _flips(ours, count)
                assert drawn == [theirs.random() < 0.5 for _ in range(count)]
                assert all(type(v) is bool for v in drawn)
                assert ours.getstate() == theirs.getstate()


class TestLazyDraws:
    """A sampled table draws its random cells on first read, in the order a
    whole-table draw takes them, and nothing past the last segment read."""

    @staticmethod
    def sampled(monkeypatch, kind, pattern, profile, horizon):
        """The table, its generator's seed string and the generator."""
        made = []

        def generator(seed):
            made.append((seed, random.Random(seed)))
            return made[-1][1]

        monkeypatch.setattr(detectors, "random", SimpleNamespace(Random=generator))
        table = sample_history(DetectorSpec(kind, pattern.n), pattern, profile, seed=3, horizon=horizon)
        [(seed, rng)] = made
        return table, seed, rng

    @staticmethod
    def read_live_cells(table, pattern):
        """Every cell of a process before its crash, as a run reads them."""
        ends = {p: table.horizon + 1 for p in pattern.correct} | dict(pattern.crash_steps)
        return {(p, t): table.at(p, t) for p, end in ends.items() for t in range(end)}

    def test_lockmin_table_draws_nothing_for_its_live_cells(self, monkeypatch):
        # shaped like campaign-mix's lockmin table: its live cells are all
        # fixed by the profile, and only the dead cells of processes 2 and 4
        # draw, in that order
        pattern = FailurePattern.of(5, {2: 30, 4: 80})
        profile = OracleProfile("adversarial", 150)
        table, seed, rng = self.sampled(monkeypatch, EVENTUAL_CRASH_COUNT, pattern, profile, 1500)
        eager = random.Random(seed)
        _randints(eager, 5, 1501 - 30)
        _randints(eager, 5, 1501 - 80)
        read = self.read_live_cells(table, pattern)
        assert rng.getstate() != eager.getstate()
        assert rng.getstate() == random.Random(seed).getstate()
        assert all(v == table.rows[p - 1][t] for (p, t), v in read.items())
        assert rng.getstate() == eager.getstate()

    def test_floodmax_table_leaves_the_last_dead_cells_undrawn(self, monkeypatch):
        # shaped like campaign-mix's floodmax table: live cells draw, and so
        # do the dead cells of process 2, which precede live ones in the
        # stream; those of process 4 come last and stay undrawn
        pattern = FailurePattern.of(4, {2: 25, 4: 60})
        table, seed, rng = self.sampled(monkeypatch, CRASH_COUNT, pattern, OracleProfile("adversarial", 100), 1200)
        read = self.read_live_cells(table, pattern)
        after_reads = rng.getstate()
        assert after_reads != random.Random(seed).getstate()
        assert all(v == table.rows[p - 1][t] for (p, t), v in read.items())
        assert rng.getstate() != after_reads


class TestAnonymityOfKinds:
    @pytest.mark.parametrize("kind", [CRASH_COUNT, EVENTUAL_CRASH_COUNT, SELF_TRUST])
    def test_anonymous_kinds_closed(self, kind):
        for n in (2, 3, 4):
            spec = DetectorSpec(kind, n)
            for crashes in PATTERNS[n]:
                pat = FailurePattern.of(n, crashes)
                for seed in range(5):
                    hist = sample_history(spec, pat, OracleProfile("adversarial", 5), seed=seed, horizon=9)
                    assert is_anonymous(spec, pat, hist).anonymous

    def test_perfect_kind_breaks(self):
        pat = FailurePattern.of(3, {1: 2})
        spec = DetectorSpec(PERFECT, 3)
        hist = sample_history(spec, pat, OracleProfile("optimistic", 4), seed=0, horizon=8)
        verdict = is_anonymous(spec, pat, hist)
        assert not verdict.anonymous and verdict.violation is not None

    def test_counterexample_detector_breaks(self):
        detector = LowestCrashedIndex(3)
        pat = FailurePattern.of(3, {1: 0})
        hist = detector.history(pat, 6)
        verdict = is_anonymous(detector, pat, hist)
        assert not verdict.anonymous


class TestExhaustiveValidators:
    def test_verdicts_pinned(self):
        # every table of every kind over its cell range, against every pattern
        # with at most n - 1 crashes at steps 0..h+1, at n <= 2 for horizons
        # 0-2 and at n = 3 for horizon 0: the (valid, total) counts name the
        # (kind, n, h) whose verdicts moved
        digest, counts = validator_digest()
        assert counts == VALIDATOR_COUNTS
        assert digest == VALIDATOR_SHA256
