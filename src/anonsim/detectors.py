"""Failure-detector specifications: validators, samplers, and oracle runtimes.

Six detector kinds are supported.  The anonymous ones output data that never
names a process:

* ``crash-count``          -- always-accurate count of crashed processes
* ``eventual-crash-count`` -- the count is only eventually accurate
* ``self-trust``           -- eventually exactly one correct process trusts itself

and the classic, identity-revealing ones used by the translations:

* ``perfect`` / ``eventually-perfect`` -- suspected-process sets
* ``leader``                           -- eventual common correct leader

Each kind is one `KINDS` entry: its cell range, its rule and its measure.
A count is a suspect set measured by its size, so crash-count and perfect
share one rule (`_accurate`, completeness plus time-indexed accuracy) and
their eventual forms another (`_eventual`); `LiveOracle` reads the same
measure of the crashed set.

Every "eventually ..." clause is evaluated against the history's constant
tail: with post-crash cells of crashed processes exempt (their modules are
never read again), an existential convergence point exists iff the tail cells
of the relevant processes satisfy the clause.  The rules therefore never
trust a recorded convergence step; they recompute from the table.

The crash-count sampler keeps every live cell within |F(t)|, as accuracy
demands.  Before convergence an eventual count may read anything in range:
the pessimistic profile reads every process crashed, which under-counts the
alive processes, and an algorithm that reads it must tolerate that (lockmin
waits for at least n - f messages, `LockMinConsensus._need`).

A sampled table's random cells are drawn row by row, each row in step
order.  A row is kept as segments: the cells fixed by the pattern and the
profile (post-convergence cells, |F(t)| stretches, optimistic and
pessimistic cells, dead cells of non-adversarial profiles) are constant runs
that cost no RNG calls; only the cells that use randomness draw.  The table
is made on first read (`_SampledHistory`): `at` returns a fixed cell without
touching the generator, and reads a random cell by first drawing every
earlier random segment, in that order, then its own; no later segment is
drawn.  Reading `rows` draws the rest and builds the whole table.  That draw
order, not when a cell is drawn, is part of the replay contract: the same
(seed, kind, profile, pattern, horizon) yields the same table, whether read
cell by cell or whole, and so the same trace, on every supported
interpreter.

The random cells of a segment are drawn in batches (`_randints`, `_flips`):
one `getrandbits` call returns as many Mersenne-Twister words as cells are
still missing, and byte operations keep exactly the words that one
`randint` or `random() < 0.5` call per cell would have used.  The batches
consume the same words in the same order as the per-cell calls, and never a
word more, so they give the same tables.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from functools import cache, partial
from itertools import chain, repeat
from operator import le
from typing import Any, Callable

from .model import DetectorHistory, FailurePattern

CRASH_COUNT = "crash-count"
EVENTUAL_CRASH_COUNT = "eventual-crash-count"
SELF_TRUST = "self-trust"
PERFECT = "perfect"
EVENTUALLY_PERFECT = "eventually-perfect"
LEADER = "leader"

COUNT_KINDS = (CRASH_COUNT, EVENTUAL_CRASH_COUNT)

BEHAVIORS = ("optimistic", "pessimistic", "adversarial")


@cache
def _procs(n: int) -> frozenset[int]:
    return frozenset(range(1, n + 1))


def _accurate(history: DetectorHistory, pattern: FailurePattern, measure: Callable) -> list:
    """Strong completeness (a correct process's tail cell is at least
    measure(crashed)) plus accuracy (no cell of a process before its crash
    exceeds measure(F(t))), where `<=` orders counts and includes sets alike.
    Past the horizon a correct process repeats its last cell while F(t) can
    only grow, so the cells up to the horizon are all that accuracy needs.
    What breaks them: the correct processes whose tail breaks completeness,
    else the first cell, in row order, that breaks accuracy."""
    crashed = measure(pattern.crashed)
    h = history.horizon
    tails = [q for q in sorted(pattern.correct) if not crashed <= history.at(q, h)]
    if tails:
        return tails
    bound = [measure(pattern.at(t)) for t in range(h + 1)]
    for p in range(1, history.n + 1):
        row = history.row(p)
        if not all(map(le, row[:pattern.crash_step(p)], bound)):
            return [next((p, t) for t, (v, b) in enumerate(zip(row, bound)) if not v <= b)]
    return []


def _eventual(history: DetectorHistory, pattern: FailurePattern, measure: Callable) -> list:
    """Completeness plus eventual accuracy: both reduce to every correct
    process's tail cell reading measure(crashed); those that do not break them."""
    crashed = measure(pattern.crashed)
    return [q for q in sorted(pattern.correct) if history.at(q, history.horizon) != crashed]


def _self_trust(history: DetectorHistory, pattern: FailurePattern, measure: None) -> list:
    """Eventually exactly one correct process outputs true, forever; else
    the ones that do break it, or all correct processes if none does."""
    trusting = [q for q in sorted(pattern.correct) if history.at(q, history.horizon)]
    return [] if len(trusting) == 1 else trusting or sorted(pattern.correct)


def _leader(history: DetectorHistory, pattern: FailurePattern, measure: None) -> list:
    """Eventually all correct processes output the same correct process;
    else they all break it."""
    tails = {history.at(q, history.horizon) for q in pattern.correct}
    return [] if len(tails) == 1 and next(iter(tails)) in pattern.correct else sorted(pattern.correct)


# (ok, what): whether a cell v of a table over n processes is in range, and
# the error naming the range
_COUNT_CELLS = (lambda v, n: isinstance(v, int) and not isinstance(v, bool) and 0 <= v <= n,
                "count history cell out of range 0..{n}")
_SET_CELLS = (lambda v, n: isinstance(v, frozenset) and v <= _procs(n),
              "suspect-set history cell is not a subset of P")

# kind -> (cells, rule, measure): the cell range as (ok, what), the
# completeness and accuracy clauses, which return what breaks them ([] if
# nothing does), and what a cell of a measured kind reads of a crashed set
KINDS: dict[str, tuple[tuple, Callable[..., list], Callable | None]] = {
    CRASH_COUNT: (_COUNT_CELLS, _accurate, len),
    EVENTUAL_CRASH_COUNT: (_COUNT_CELLS, _eventual, len),
    SELF_TRUST: ((lambda v, n: isinstance(v, bool), "self-trust history cell is not a bool"), _self_trust, None),
    PERFECT: (_SET_CELLS, _accurate, frozenset),
    EVENTUALLY_PERFECT: (_SET_CELLS, _eventual, frozenset),
    LEADER: ((lambda v, n: isinstance(v, int) and not isinstance(v, bool) and 1 <= v <= n,
              "leader history cell is not a process index"), _leader, None),
}
ALL_KINDS = tuple(KINDS)


class CellRangeError(ValueError):
    """A history cell outside its kind's range, at `cell`: (process, step)."""

    def __init__(self, message: str, cell: tuple[int, int]):
        super().__init__(message)
        self.cell = cell


@dataclass(frozen=True)
class DetectorSpec:
    """A detector kind bound to a system size; provides `validates`."""

    kind: str
    n: int

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown detector kind {self.kind!r}")

    def validates(self, history: DetectorHistory, pattern: FailurePattern) -> bool:
        return not self.broken(history, pattern)

    def broken(self, history: DetectorHistory, pattern: FailurePattern) -> list:
        """What in `history` breaks the kind's rule for `pattern`, [] if
        nothing does: the correct processes whose tail cell breaks a tail
        clause, or the first cell that breaks accuracy, as (process, step).
        The first cell out of range raises `CellRangeError`."""
        if history.n != self.n or pattern.n != self.n:
            raise ValueError("history/pattern size does not match the spec")
        (ok, what), rule, measure = KINDS[self.kind]
        for p, row in enumerate(history.rows, start=1):
            for t, v in enumerate(row):
                if not ok(v, self.n):
                    raise CellRangeError(f"{what.format(n=self.n)}: {v!r}", (p, t))
        return rule(history, pattern, measure)


@dataclass(frozen=True)
class OracleProfile:
    """How a sampled history behaves before its eventual clauses kick in.

    behavior:
      optimistic   -- truthful from the start (current crashed set / stable leader)
      pessimistic  -- over-suspects before convergence (everything it may)
      adversarial  -- worst case for waiting algorithms: eventual-count reads 0
                      crashed (everyone alive), counts jitter randomly where
                      accuracy permits, self-trust flags flip at random
    convergence: step from which the eventual clauses hold (pushed past the
    last crash automatically).
    """

    behavior: str = "adversarial"
    convergence: int = 0

    def __post_init__(self) -> None:
        if self.behavior not in BEHAVIORS:
            raise ValueError(f"unknown profile behavior {self.behavior!r}")
        if self.convergence < 0:
            raise ValueError("convergence step must be >= 0")


def _randints(rng: random.Random, top: int, count: int) -> list[int]:
    """`[rng.randint(0, top) for _ in range(count)]`, drawn in batches of words.

    `Random.randint` on CPython 3.10-3.13 takes `getrandbits(k)`, the top
    k = (top+1).bit_length() bits of one 32-bit word, until the result is
    in range.  For a bound top+1 <= 255, one `getrandbits(32*need)` returns
    the next `need` words, the first in the least significant bits, where
    `need` is the number of cells still missing; the words whose top byte
    gives an in-range value are kept, in order, and the others are the
    rejected tries.  A batch keeps at most `need` words, so it draws no word
    the per-call loop would not: the draws are consumed in batches, but the
    same words in the same order give the same values and leave the
    generator in the same state.  Larger bounds take the per-call loop.
    """
    bound = top + 1
    getrandbits = rng.getrandbits
    out: list[int] = []
    if bound > 255:
        k = bound.bit_length()
        for _ in range(count):
            r = getrandbits(k)
            while r >= bound:
                r = getrandbits(k)
            out.append(r)
        return out
    table, rejected = _top_byte_values(bound)
    while count:
        kept = getrandbits(32 * count).to_bytes(4 * count, "little")[3::4].translate(table, rejected)
        out += kept
        count -= len(kept)
    return out


@cache
def _top_byte_values(bound: int) -> tuple[bytes, bytes]:
    """For a bound of at most 255: the value `getrandbits(k)` takes for each
    top byte of a word, k = bound.bit_length(), and the top bytes whose
    value is out of range."""
    shift = 8 - bound.bit_length()
    return bytes(v >> shift for v in range(256)), bytes(v for v in range(256) if v >> shift >= bound)


_HEADS = bytes(v < 128 for v in range(256))  # 1 where a word's top byte has its top bit clear


def _flips(rng: random.Random, count: int) -> list[bool]:
    """`[rng.random() < 0.5 for _ in range(count)]`, drawn in one batch.

    `random()` takes two words and is below 0.5 exactly when the first of
    them has its top bit clear, so one `getrandbits(64*count)` holds every
    draw, the first word in the least significant bits.  The 0/1 bytes that
    `_HEADS` maps the top bytes to decode as bools through a `memoryview`
    cast to "?", without a `bool()` call per cell.
    """
    heads = rng.getrandbits(64 * count).to_bytes(8 * count, "little")[3::8].translate(_HEADS)
    return memoryview(heads).cast("?").tolist()


class _SuspectSets(dict):
    """Member tuples to one frozenset each: `sets[members]` builds the set on
    first lookup, so the equal cells of a table share one object."""

    def __missing__(self, members: tuple[int, ...]) -> frozenset[int]:
        value = self[members] = frozenset(members)
        return value


def _subsets(rng: random.Random, members: tuple[int, ...], chance: float, sets: _SuspectSets,
             count: int) -> list[frozenset[int]]:
    """`count` suspect sets, each keeping every one of `members` in turn
    with probability `chance`: one `random()` per member per cell."""
    random_ = rng.random
    return [sets[tuple([q for q in members if random_() < chance])] for _ in range(count)]


def _leaders(rng: random.Random, n: int, count: int) -> list[int]:
    """`count` process indices, one `randint(0, n - 1)` each, plus one."""
    return [1 + v for v in _randints(rng, n - 1, count)]


class _Draw:
    """A random segment of a sampled table: `make()` draws its cells, which
    `cells` holds once the table's stream has reached it."""

    __slots__ = ("make", "cells")

    def __init__(self, make: Callable[[], list]):
        self.make = make
        self.cells: list | None = None


class _SampledHistory(DetectorHistory):
    """A sampled table whose cells are made on first read.

    Each row is a list of segments (start, end, cell) that cover steps
    [start, end) and together 0..horizon: a constant run, whose `cell` is
    its value, or a random segment, whose `cell` is a `_Draw`.  `_pending`
    holds the random segments not yet drawn, in stream order.  `at` returns
    a constant cell without touching the generator; a random cell is read by
    first drawing every pending segment up to and including its own, so the
    generator sees the same calls in the same order as a whole-table draw,
    only fewer of them.  `rows` draws what is left and builds the table's
    tuples, so equality, hashing, serialization, the validators and
    permutations see the same table as a whole-table draw.
    """

    def __init__(self, kind: str, n: int, horizon: int, convergence: int, segments: list[list[tuple]],
                 pending: deque[_Draw]):
        for name, value in (("kind", kind), ("n", n), ("horizon", horizon), ("convergence", convergence),
                            ("emulated_from", None), ("_segments", segments), ("_pending", pending),
                            ("_rows", None)):
            object.__setattr__(self, name, value)

    def at(self, p: int, t: int) -> Any:
        if t < 0:
            raise ValueError(f"negative time {t}")
        if t > self.horizon:
            t = self.horizon
        for start, end, cell in self._segments[p - 1]:
            if t < end:
                if cell.__class__ is not _Draw:
                    return cell
                if cell.cells is None:
                    self._draw(cell)
                return cell.cells[t - start]

    def _draw(self, until: _Draw | None = None) -> None:
        """Draw the pending segments in stream order, through `until` or all."""
        pending = self._pending
        while pending and (until is None or until.cells is None):
            segment = pending.popleft()
            segment.cells = segment.make()

    @property
    def rows(self) -> tuple[tuple[Any, ...], ...]:
        if self._rows is None:
            self._draw()
            rows = tuple(
                tuple(chain.from_iterable(
                    cell.cells if cell.__class__ is _Draw else repeat(cell, end - start)
                    for start, end, cell in row
                ))
                for row in self._segments
            )
            object.__setattr__(self, "_rows", rows)
        return self._rows


def _stretches(crash: dict[int, int], horizon: int) -> list[tuple[int, frozenset[int]]]:
    """F(t) for t in 0..horizon as (end, F) for each stretch between
    crashes: F(t) is F from the previous stretch's end up to `end`.  Stretch
    i holds i crashed processes; crashes at one step leave empty stretches."""
    stretches = []
    so_far: set[int] = set()
    for s, p in sorted((s, p) for p, s in crash.items()):
        stretches.append((s, frozenset(so_far)))
        so_far.add(p)
    stretches.append((horizon + 1, frozenset(so_far)))
    return stretches


def sample_history(
    spec: DetectorSpec,
    pattern: FailurePattern,
    profile: OracleProfile,
    seed: int,
    horizon: int,
) -> DetectorHistory:
    """Draw a valid history for `pattern`, seeded and reproducible.

    Raises for infeasible setups: convergence or crash steps beyond the
    horizon cannot be witnessed by a finite table.
    """
    if pattern.n != spec.n:
        raise ValueError("pattern size does not match the spec")
    if profile.convergence > horizon:
        raise ValueError(f"convergence {profile.convergence} beyond horizon {horizon}")
    if pattern.crash_steps and pattern.last_crash > horizon:
        raise ValueError(f"crash at step {pattern.last_crash} beyond horizon {horizon}")

    rng = random.Random(f"{seed}/{spec.kind}/{profile.behavior}/{profile.convergence}")
    n = spec.n
    behavior = profile.behavior
    adversarial = behavior == "adversarial"
    conv = max(profile.convergence, pattern.last_crash)
    crash = dict(pattern.crash_steps)
    crashed_total = len(crash)
    stretches = _stretches(crash, horizon)
    width = horizon + 1
    segments: list[list[tuple]] = [[] for _ in range(n)]
    pending: deque[_Draw] = deque()

    # each call extends `row` up to step `end`; an empty segment adds nothing
    def const(row: list, end: int, value: Any) -> None:
        start = row[-1][1] if row else 0
        if end > start:
            row.append((start, end, value))

    def drawn(row: list, end: int, make: Callable, *args: Any) -> None:
        start = row[-1][1] if row else 0
        if end > start:
            segment = _Draw(partial(make, rng, *args, end - start))
            pending.append(segment)
            row.append((start, end, segment))

    def measured(row: list, end: int, measure: Callable) -> None:  # measure(F(t)), stretch by stretch
        for stretch_end, failed in stretches:
            const(row, min(stretch_end, end), measure(failed))

    if spec.kind in COUNT_KINDS:
        for p, row in enumerate(segments, start=1):
            # live cells [0, live_end): before convergence up to pre_end, the
            # exact total after; dead cells [live_end, horizon] are unconstrained
            live_end = crash.get(p, width)
            pre_end = min(live_end, conv)
            if behavior == "optimistic" or (spec.kind == CRASH_COUNT and behavior == "pessimistic"):
                measured(row, pre_end, len)
            elif spec.kind == CRASH_COUNT:
                # permanent accuracy caps live cells at the current count,
                # drawn one stretch between crashes at a time
                for stretch_end, failed in stretches:
                    drawn(row, min(stretch_end, pre_end), _randints, len(failed))
            else:
                # eventual accuracy: anything in range goes before convergence;
                # adversarial claims everyone alive, for maximal waiting
                const(row, pre_end, n if behavior == "pessimistic" else 0)
            const(row, live_end, crashed_total)
            if adversarial:
                drawn(row, width, _randints, n)
            else:
                measured(row, width, len)
    elif spec.kind == SELF_TRUST:
        leader = rng.choice(sorted(pattern.correct))
        for p, row in enumerate(segments, start=1):
            pre = width if p in crash else 0 if behavior == "optimistic" else conv
            if adversarial:
                # a crashed row's flips, live and dead, are one stream; as two
                # segments, a read of a live cell leaves the dead ones undrawn
                drawn(row, crash.get(p, 0), _flips)
                drawn(row, pre, _flips)
            else:
                const(row, pre, False)
            const(row, width, p == leader)
    elif spec.kind in (PERFECT, EVENTUALLY_PERFECT):
        sets = _SuspectSets()  # one object per distinct drawn set, at most 2^n of them
        for row in segments:
            if behavior == "optimistic" or (spec.kind == PERFECT and behavior == "pessimistic"):
                measured(row, conv, frozenset)
            elif behavior == "pessimistic":
                const(row, conv, _procs(n))
            elif spec.kind == PERFECT:
                # strong accuracy binds every pre-crash cell
                for stretch_end, failed in stretches:
                    drawn(row, min(stretch_end, conv), _subsets, tuple(sorted(failed)), 0.5, sets)
            else:
                drawn(row, conv, _subsets, tuple(range(1, n + 1)), 0.3, sets)
            if spec.kind == EVENTUALLY_PERFECT:
                const(row, width, pattern.crashed)
            else:
                measured(row, width, frozenset)
    elif spec.kind == LEADER:
        leader = rng.choice(sorted(pattern.correct))
        for p, row in enumerate(segments, start=1):
            pre = 0 if behavior == "optimistic" else conv
            if adversarial:
                drawn(row, pre, _leaders, n)
            else:
                const(row, pre, p)
            const(row, width, leader)
    else:  # pragma: no cover - guarded by DetectorSpec
        raise ValueError(spec.kind)

    return _SampledHistory(spec.kind, n, horizon, conv, segments, pending)


class OracleRuntime:
    """Reveals a pre-drawn valid history to a running simulation."""

    def __init__(self, history: DetectorHistory):
        self.history = history

    def read(self, p: int, t: int, crashed: frozenset[int]) -> Any:
        return self.history.at(p, t)


class LiveOracle:
    """Truthful oracle computed from the simulation's current crashed set.

    Used by exhaustive exploration, where crash placements are chosen
    dynamically and a pre-drawn table cannot stay consistent with them.
    The four measured kinds read their `KINDS` measure of the crashed set
    (its size, or the set itself); self-trust points at the lowest-index
    live process, leader outputs it.
    """

    def __init__(self, kind: str, n: int):
        if kind not in KINDS:
            raise ValueError(f"unknown detector kind {kind!r}")
        self.kind = kind
        self.n = n
        self.measure = KINDS[kind][2]

    def read(self, p: int, t: int, crashed: frozenset[int]) -> Any:
        if self.measure is not None:
            return self.measure(crashed)
        live_min = min(q for q in range(1, self.n + 1) if q not in crashed)
        if self.kind == SELF_TRUST:
            return p == live_min
        return live_min
