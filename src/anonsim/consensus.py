"""Binary consensus automata for anonymous processes.

Three round-based protocols, each driven by a different oracle:

* ``FloodMaxConsensus``  -- f+1 rounds of flooding, adopt the maximum; the
  crash-count oracle tells each round how many messages to wait for.
* ``LockMinConsensus``   -- propose/lock phases, adopt the minimum, decide on
  a unanimous lock; tolerates an eventually-accurate count when n > 2f.
* ``LeaderVoteConsensus``-- the self-trust oracle nominates a leader whose
  value is reported, voted on and decided once n-f identical votes appear;
  n > 2f.

All automata are step functions polled by the simulator: on_poll performs at
most one transition and returns whether it made progress, so a False return
means the process is blocked at a wait condition.  Each count wait is one
tagged read: ``ctx.msgs(r, tag)`` is round r's messages of that tag.  The
engine never polls a halted process, so no automaton tests for having halted.
Ties that the pseudo-code leaves to message arrival order (several
simultaneous leader claims, several non-null votes) are broken by value, which
keeps the automata insensitive to inbox ordering and lets exhaustive
exploration merge equivalent states.
The three share one base, ``_Consensus``, for their common fields, start and
decision; as for every automaton, the key is every field but n, f and proc.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable

from .simulator import Automaton, Ctx, ScenarioConfig, ScenarioError


@dataclass
class _Consensus(Automaton):
    """What the protocols share.  Each keeps its own `on_poll` and tests
    `started` inline before `_start`: guard probes poll waiting processes."""

    v: int
    r: int = 0
    phase: str = "done"
    started: bool = False
    decided: Any = None
    decide_round: int | None = None

    def _start(self, ctx: Ctx) -> None:
        self.started = True
        ctx.switch_round(self.r, v=self.v)

    def _decide(self, ctx: Ctx, value: int, halt: bool) -> None:
        self.decided = value
        self.decide_round = self.r
        ctx.decide(value, r=self.r)
        if halt:
            ctx.halt()
            # the engine polls no halted process, so this phase is never
            # read; it makes the states leadervote halts in from any phase
            # one key, so explore merges them
            self.phase = "done"


@dataclass
class FloodMaxConsensus(_Consensus):
    r: int = 1
    phase: str = "send"  # send | collect | done

    def _merge(self, values: set[int]) -> int:
        return max(values)

    def on_poll(self, ctx: Ctx) -> bool:
        if self.phase == "send":
            if not self.started:
                self._start(ctx)
            ctx.broadcast(("Propose", self.r, self.v), round_tag=self.r)
            self.phase = "collect"
            return True
        props = ctx.msgs(self.r, "Propose")
        if len(props) < ctx.alive_count():
            return False
        values = {self.v} | {m[2] for m in props}
        self.v = self._merge(values)
        if self.r == self.f + 1:
            self._decide(ctx, self.v, halt=True)
        else:
            self.r += 1
            ctx.switch_round(self.r, v=self.v)
            self.phase = "send"
        return True


@dataclass
class LockMinConsensus(_Consensus):
    phase: str = "propose-send"  # propose-send | propose-wait | lock-send | lock-wait
    lock: int | None = None

    def _need(self, ctx: Ctx) -> int:
        # waiting for fewer than n-f messages is never necessary and would
        # let a garbage pre-convergence reading break lock exclusivity
        return max(ctx.alive_count(), self.n - self.f)

    def _lock_rule(self, proposed: set[int]) -> int | None:
        return self.v if len(proposed) == 1 else None

    def on_poll(self, ctx: Ctx) -> bool:
        if self.phase == "propose-send":
            if not self.started:
                self._start(ctx)
            ctx.broadcast(("Propose", self.r, self.v), round_tag=self.r)
            self.phase = "propose-wait"
            return True
        if self.phase == "propose-wait":
            props = ctx.msgs(self.r, "Propose")
            if len(props) < self._need(ctx):
                return False
            proposed = {m[2] for m in props}
            self.v = min(proposed)
            self.lock = self._lock_rule(proposed)
            self.phase = "lock-send"
            return True
        if self.phase == "lock-send":
            ctx.broadcast(("Lock", self.r, self.lock, self.v), round_tag=self.r)
            if self.decided is not None:
                ctx.halt()
            else:
                self.phase = "lock-wait"
            return True
        locks = ctx.msgs(self.r, "Lock")
        if len(locks) < self._need(ctx):
            return False
        tags = [m[2] for m in locks]
        present = sorted(t for t in set(tags) if t is not None)
        if present:
            self.v = present[0]
            if all(t == self.v for t in tags):
                self._decide(ctx, self.v, halt=False)
        else:
            self.v = min(m[3] for m in locks)
        self.r += 1
        ctx.switch_round(self.r, v=self.v, lock=self.lock)
        self.phase = "propose-send"
        return True


@dataclass
class LeaderVoteConsensus(_Consensus):
    phase: str = "lead"  # lead | report-wait | vote-wait | done
    aux: int | None = None

    def _majority(self, counts: Counter) -> int | None:
        for w in sorted(counts):
            if counts[w] * 2 > self.n:
                return w
        return None

    def on_poll(self, ctx: Ctx) -> bool:
        # a decision announcement pre-empts the round structure: forward it
        # once, decide the carried value, halt
        for m in ctx.untagged("Decide"):
            ctx.broadcast(("Decide", m[1]))
            self._decide(ctx, m[1], halt=True)
            return True
        if self.phase == "lead":
            if not self.started:
                self._start(ctx)
            leaders = ctx.msgs(self.r, "Leader")
            if leaders:
                self.v = min(m[2] for m in leaders)
            elif ctx.oracle() is True:
                ctx.broadcast(("Leader", self.r, self.v), round_tag=self.r)
            else:
                return False
            ctx.broadcast(("Report", self.r, self.v), round_tag=self.r)
            self.phase = "report-wait"
            return True
        if self.phase == "report-wait":
            reports = ctx.msgs(self.r, "Report")
            if len(reports) < self.n - self.f:
                return False
            self.aux = self._majority(Counter(m[2] for m in reports))
            ctx.broadcast(("Vote", self.r, self.aux), round_tag=self.r)
            self.phase = "vote-wait"
            return True
        votes = ctx.msgs(self.r, "Vote")
        if len(votes) < self.n - self.f:
            return False
        agreed = [m[2] for m in votes if m[2] is not None]
        if agreed:
            self.v = min(agreed)
        if len(agreed) >= self.n - self.f:
            ctx.broadcast(("Decide", self.v))
        self.r += 1
        ctx.switch_round(self.r, v=self.v)
        self.phase = "lead"
        return True


def _factory(cls: type) -> Callable:
    """The factory of `cls`: it needs one input per process.  A protocol's
    n > 2f bound is its `verify.ALGORITHMS` entry's `majority` flag."""

    def factory(scenario: ScenarioConfig, proc: int) -> _Consensus:
        cfg = scenario.cfg
        if len(scenario.inputs) != cfg.n:
            raise ScenarioError(f"consensus needs one input per process, got {len(scenario.inputs)} for n={cfg.n}")
        return cls(n=cfg.n, f=cfg.f, proc=proc, v=scenario.inputs[proc - 1])

    return factory


flood_max = _factory(FloodMaxConsensus)
lock_min = _factory(LockMinConsensus)
leader_vote = _factory(LeaderVoteConsensus)
