"""Detector-to-detector emulations.

Each transformation runs an automaton per process that maintains an output
variable; the per-process output series assembled over a whole trace must
validate against the target detector for the run's failure pattern.

Message-passing transformations (sender attribution required):

* ``EventualSuspector`` -- rounds of ALIVE broadcasts; whoever is missing
  from the current round's sender set is suspected.  Builds an
  eventually-perfect detector from an eventual crash count.
* ``StableSuspector``   -- same silence principle, but the suspect set only
  updates after the sender set has stayed identical for f+2 rounds, which
  rules out suspecting a live process.  Needs the always-accurate count.
* ``SelfTrustAnnouncer``-- the process whose self-trust flag is up announces
  itself; everyone adopts the latest announcement, emulating a leader oracle.

Anonymous randomized transformation:

* ``MaxIdSelfTrust`` -- every process draws a random identifier, heartbeats
  it each round, and trusts itself iff its own identifier is the largest one
  heard this round.  Distinct identifiers make the largest-id correct process
  the eventual unique self-truster; a collision is the priced-in failure mode.

The two suspectors and ``MaxIdSelfTrust`` share one heartbeat round,
``_Heartbeats.on_poll``; each states only its heartbeat, what it counts and
what a full round does.

Table-to-table translations (no messages needed) are plain functions that
one constructor, ``_translation``, builds: suspect-set sizes emulate crash
counts, and a leader table restricted to "am I the leader" emulates
self-trust.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable

from .detectors import (
    CRASH_COUNT,
    EVENTUAL_CRASH_COUNT,
    EVENTUALLY_PERFECT,
    LEADER,
    PERFECT,
    SELF_TRUST,
)
from .model import DetectorHistory, cell_from_json
from .simulator import Automaton, Ctx, ScenarioConfig, Trace


def _require_identified(scenario: ScenarioConfig, name: str) -> None:
    if not scenario.identified:
        raise ValueError(f"{name} attributes receptions to senders; run it in identified mode")


@dataclass
class _Heartbeats(Automaton):
    """The round loop shared by the heartbeat emulations.

    The first poll moves from phase "start" to "send", switches to round r
    and shows the initial `output`.  Round r broadcasts `_heartbeat()`
    tagged r, unless r is past the cap, which halts; then waits until
    `_heard(ctx)`, the round-r heartbeats counted, reaches the count
    oracle's alive count, runs `_full_round` and advances.
    """

    rounds_cap: int | None = field(compare=False)
    r: int = 1
    phase: str = "start"  # start | send | wait

    def on_poll(self, ctx: Ctx) -> bool:
        if self.phase == "start":
            self.phase = "send"
            ctx.switch_round(self.r)
            ctx.emit_output(self.output)
        if self.phase == "send":
            if self.rounds_cap is not None and self.r > self.rounds_cap:
                ctx.halt()
                return True
            ctx.broadcast(self._heartbeat(), round_tag=self.r)
            self.phase = "wait"
            return True
        heard = self._heard(ctx)
        need = ctx.alive_count()
        if len(heard) < need:
            return False
        self._full_round(ctx, heard, need)
        self.r += 1
        ctx.switch_round(self.r)
        self.phase = "send"
        return True


@dataclass
class _Suspector(_Heartbeats):
    """ALIVE heartbeats, counted by sender; the output is the suspect set."""

    suspect: frozenset = frozenset()

    @property
    def output(self) -> frozenset:
        return self.suspect

    def _heartbeat(self) -> tuple:
        return ("ALIVE", self.r)

    def _heard(self, ctx: Ctx) -> set[int]:
        return set(ctx.senders(self.r, "ALIVE"))


@dataclass
class EventualSuspector(_Suspector):
    """suspect = P minus the senders heard this round (eventually accurate)."""

    def _full_round(self, ctx: Ctx, senders: set[int], need: int) -> None:
        self.suspect = frozenset(range(1, self.n + 1)) - senders
        ctx.emit_output(self.suspect)


@dataclass
class StableSuspector(_Suspector):
    """Suspect only after the sender set held still for f+2 rounds."""

    r: int = 0
    earlier_alive: frozenset = frozenset()
    last_change: int = 0

    def _stable_enough(self) -> bool:
        return self.r >= self.last_change + self.f + 2

    def _full_round(self, ctx: Ctx, senders: set[int], need: int) -> None:
        # the count is the binding cardinality: take exactly `need` senders
        alive = frozenset(sorted(senders)[:need])
        if alive != self.earlier_alive:
            self.last_change = self.r
        elif self._stable_enough():
            self.suspect = frozenset(range(1, self.n + 1)) - alive
            ctx.emit_output(self.suspect)
        self.earlier_alive = alive


@dataclass
class SelfTrustAnnouncer(Automaton):
    """Tell everyone when the oracle trusts you; adopt the latest claim."""

    ticks_cap: int | None = field(compare=False)
    output: int = field(kw_only=True)  # leader estimate; starts as self
    ticks: int = 0
    last_claim: int = -8
    claims_seen: int = 0

    def on_poll(self, ctx: Ctx) -> bool:
        self.ticks += 1
        progressed = self.ticks == 1  # the first poll shows the initial estimate
        if progressed:
            ctx.emit_output(self.output)
        claims = ctx.untagged("Claim")
        if len(claims) > self.claims_seen:
            self.claims_seen = len(claims)
            self.output = claims[-1][1]
            ctx.emit_output(self.output)
            progressed = True
        if self.ticks_cap is not None and self.ticks >= self.ticks_cap:
            ctx.halt()
            return True
        # throttled re-announcement: stale claims from before the oracle
        # stabilized must be outnumbered, not outrun
        if ctx.oracle() is True and self.ticks - self.last_claim >= 8:
            self.last_claim = self.ticks
            self.output = self.proc
            ctx.emit_output(self.output)
            ctx.broadcast(("Claim", self.proc))
            progressed = True
        return progressed


@dataclass
class MaxIdSelfTrust(_Heartbeats):
    """Trust yourself iff your random identifier tops this round's heartbeats."""

    my_id: int = field(kw_only=True)
    output: bool = True  # the rule applied to the singleton {own id}

    def _heartbeat(self) -> tuple:
        return ("HB", self.r, self.my_id)

    def _heard(self, ctx: Ctx) -> list:
        return ctx.msgs(self.r, "HB")

    def _full_round(self, ctx: Ctx, beats: list, need: int) -> None:
        self.output = self.my_id == max(m[2] for m in beats)
        ctx.emit_output(self.output)


# --- factories ----------------------------------------------------------------

DEFAULT_ID_BITS = 64


def eventual_suspector(scenario: ScenarioConfig, proc: int) -> EventualSuspector:
    _require_identified(scenario, "the eventual suspector")
    cfg = scenario.cfg
    return EventualSuspector(n=cfg.n, f=cfg.f, proc=proc, rounds_cap=scenario.rounds)


def stable_suspector(scenario: ScenarioConfig, proc: int) -> StableSuspector:
    _require_identified(scenario, "the stable suspector")
    cfg = scenario.cfg
    return StableSuspector(n=cfg.n, f=cfg.f, proc=proc, rounds_cap=scenario.rounds)


def self_trust_announcer(scenario: ScenarioConfig, proc: int) -> SelfTrustAnnouncer:
    _require_identified(scenario, "the self-trust announcer")
    cfg = scenario.cfg
    cap = 8 * scenario.rounds if scenario.rounds is not None else None
    return SelfTrustAnnouncer(n=cfg.n, f=cfg.f, proc=proc, ticks_cap=cap, output=proc)


def max_id_self_trust(scenario: ScenarioConfig, proc: int) -> MaxIdSelfTrust:
    if scenario.identified:
        raise ValueError("the randomized self-trust construction is an anonymous protocol")
    cfg = scenario.cfg
    my_id = random.Random(f"{scenario.seed}/proc/{proc}").getrandbits(DEFAULT_ID_BITS)
    return MaxIdSelfTrust(n=cfg.n, f=cfg.f, proc=proc, rounds_cap=scenario.rounds, my_id=my_id)


_OUTPUT_DEFAULTS: dict[str, Callable[[int, int], Any]] = {
    EVENTUALLY_PERFECT: lambda p, n: frozenset(),
    PERFECT: lambda p, n: frozenset(),
    LEADER: lambda p, n: p,
    SELF_TRUST: lambda p, n: False,
}


def output_history(trace: Trace, target_kind: str) -> DetectorHistory:
    """Assemble the emulated target history from a trace's output events."""
    n = trace.scenario.cfg.n
    horizon = max((ev["step"] for ev in trace.events), default=0)
    rows = []
    for p in range(1, n + 1):
        series = [(step, cell_from_json(value)) for step, value in trace.outputs(p)]
        row = []
        value = _OUTPUT_DEFAULTS[target_kind](p, n)
        i = 0
        for t in range(horizon + 1):
            while i < len(series) and series[i][0] <= t:
                value = series[i][1]
                i += 1
            row.append(value)
        rows.append(tuple(row))
    return DetectorHistory(
        kind=target_kind,
        n=n,
        horizon=horizon,
        rows=tuple(rows),
        emulated_from=(trace.scenario.oracle_kind, trace.scenario.algorithm, trace.scenario.seed),
    )


# --- table-to-table translations ------------------------------------------------


def _translation(history: DetectorHistory, targets: dict[str, str], expected: str, name: str,
                 row: Callable[[int, tuple], tuple]) -> DetectorHistory:
    """The history that `row(p, source row)` emulates for every process p;
    `targets` maps each accepted source kind to its target kind."""
    if history.kind not in targets:
        raise ValueError(f"expected a {expected} history, got kind {history.kind!r}")
    rows = tuple(row(p, r) for p, r in enumerate(history.rows, start=1))
    return DetectorHistory(targets[history.kind], history.n, history.horizon, rows,
                           convergence=history.convergence, emulated_from=(history.kind, name, 0))


def suspected_count(history: DetectorHistory) -> DetectorHistory:
    """Suspect-set sizes as a crash count: perfect -> crash-count and
    eventually-perfect -> eventual-crash-count."""
    return _translation(history, {PERFECT: CRASH_COUNT, EVENTUALLY_PERFECT: EVENTUAL_CRASH_COUNT},
                        "suspect-set", "suspected-count", lambda p, row: tuple(len(v) for v in row))


def leader_self_trust(history: DetectorHistory) -> DetectorHistory:
    """Restrict a leader table to "is it me": leader -> self-trust."""
    return _translation(history, {LEADER: SELF_TRUST}, "leader", "leader-self-trust",
                        lambda p, row: tuple(v == p for v in row))


def count_weakening(history: DetectorHistory) -> DetectorHistory:
    """Identity embedding: every always-accurate count is an eventual one."""
    return _translation(history, {CRASH_COUNT: EVENTUAL_CRASH_COUNT}, "crash-count", "count-weakening",
                        lambda p, row: row)
