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
means the process is blocked at a wait condition.  Ties that the pseudo-code
leaves to message arrival order (several simultaneous leader claims, several
non-null votes) are broken by value, which keeps the automata insensitive to
inbox ordering and lets exhaustive exploration merge equivalent states.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any

from .simulator import Automaton, Ctx, ScenarioConfig


@dataclass
class FloodMaxConsensus(Automaton):
    n: int
    f: int
    proc: int
    v: int
    r: int = 1
    phase: str = "send"  # send | collect | done
    started: bool = False
    decided: Any = None
    decide_round: int | None = None

    def key(self) -> tuple:
        return (self.v, self.r, self.phase, self.started, self.decided)

    def _merge(self, values: set[int]) -> int:
        return max(values)

    def on_poll(self, ctx: Ctx) -> bool:
        if self.phase == "send":
            if not self.started:
                self.started = True
                ctx.switch_round(self.r, v=self.v)
            ctx.broadcast(("Propose", self.r, self.v), round_tag=self.r)
            self.phase = "collect"
            return True
        if self.phase == "collect":
            props = [m for m in ctx.msgs(self.r) if m[0] == "Propose"]
            if len(props) < ctx.alive_count():
                return False
            values = {self.v} | {m[2] for m in props}
            self.v = self._merge(values)
            if self.r == self.f + 1:
                self.decided = self.v
                self.decide_round = self.r
                ctx.decide(self.v, r=self.r)
                ctx.halt()
                self.phase = "done"
            else:
                self.r += 1
                ctx.switch_round(self.r, v=self.v)
                self.phase = "send"
            return True
        return False


@dataclass
class LockMinConsensus(Automaton):
    n: int
    f: int
    proc: int
    v: int
    r: int = 0
    lock: int | None = None
    decided: Any = None
    decide_round: int | None = None
    phase: str = "propose-send"  # propose-send | propose-wait | lock-send | lock-wait | done
    started: bool = False

    def key(self) -> tuple:
        return (self.v, self.r, self.lock, self.phase, self.started, self.decided, self.decide_round)

    def _need(self, ctx: Ctx) -> int:
        # waiting for fewer than n-f messages is never necessary and would
        # let a garbage pre-convergence reading break lock exclusivity
        return max(ctx.alive_count(), self.n - self.f)

    def _lock_rule(self, proposed: set[int]) -> int | None:
        return self.v if len(proposed) == 1 else None

    def on_poll(self, ctx: Ctx) -> bool:
        if self.phase == "propose-send":
            if not self.started:
                self.started = True
                ctx.switch_round(self.r, v=self.v)
            ctx.broadcast(("Propose", self.r, self.v), round_tag=self.r)
            self.phase = "propose-wait"
            return True
        if self.phase == "propose-wait":
            props = [m for m in ctx.msgs(self.r) if m[0] == "Propose"]
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
                self.phase = "done"
            else:
                self.phase = "lock-wait"
            return True
        if self.phase == "lock-wait":
            locks = [m for m in ctx.msgs(self.r) if m[0] == "Lock"]
            if len(locks) < self._need(ctx):
                return False
            tags = [m[2] for m in locks]
            present = sorted(t for t in set(tags) if t is not None)
            if present:
                self.v = present[0]
                if all(t == self.v for t in tags):
                    self.decided = self.v
                    self.decide_round = self.r
                    ctx.decide(self.v, r=self.r)
            else:
                self.v = min(m[3] for m in locks)
            self.r += 1
            ctx.switch_round(self.r, v=self.v, lock=self.lock)
            self.phase = "propose-send"
            return True
        return False


@dataclass
class LeaderVoteConsensus(Automaton):
    n: int
    f: int
    proc: int
    v: int
    r: int = 0
    aux: int | None = None
    phase: str = "lead"  # lead | report-wait | vote-wait | done
    started: bool = False
    decided: Any = None
    decide_round: int | None = None

    def key(self) -> tuple:
        return (self.v, self.r, self.aux, self.phase, self.started, self.decided)

    def _majority(self, counts: Counter) -> int | None:
        for w in sorted(counts):
            if counts[w] * 2 > self.n:
                return w
        return None

    def on_poll(self, ctx: Ctx) -> bool:
        if self.phase == "done":
            return False
        # a decision announcement pre-empts the round structure: forward it
        # once, decide the carried value, halt
        for m in ctx.untagged():
            if m[0] == "Decide":
                w = m[1]
                ctx.broadcast(("Decide", w))
                self.decided = w
                self.decide_round = self.r
                ctx.decide(w, r=self.r)
                ctx.halt()
                self.phase = "done"
                return True
        if self.phase == "lead":
            if not self.started:
                self.started = True
                ctx.switch_round(self.r, v=self.v)
            leaders = [m for m in ctx.msgs(self.r) if m[0] == "Leader"]
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
            reports = [m for m in ctx.msgs(self.r) if m[0] == "Report"]
            if len(reports) < self.n - self.f:
                return False
            self.aux = self._majority(Counter(m[2] for m in reports))
            ctx.broadcast(("Vote", self.r, self.aux), round_tag=self.r)
            self.phase = "vote-wait"
            return True
        if self.phase == "vote-wait":
            votes = [m for m in ctx.msgs(self.r) if m[0] == "Vote"]
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
        return False


def flood_max(scenario: ScenarioConfig, proc: int, rng) -> FloodMaxConsensus:
    cfg = scenario.cfg
    return FloodMaxConsensus(n=cfg.n, f=cfg.f, proc=proc, v=scenario.inputs[proc - 1])


def lock_min(scenario: ScenarioConfig, proc: int, rng) -> LockMinConsensus:
    cfg = scenario.cfg
    if cfg.n <= 2 * cfg.f:
        raise ValueError(f"lock-min consensus needs n > 2f, got n={cfg.n}, f={cfg.f}")
    return LockMinConsensus(n=cfg.n, f=cfg.f, proc=proc, v=scenario.inputs[proc - 1])


def leader_vote(scenario: ScenarioConfig, proc: int, rng) -> LeaderVoteConsensus:
    cfg = scenario.cfg
    if cfg.n <= 2 * cfg.f:
        raise ValueError(f"leader-vote consensus needs n > 2f, got n={cfg.n}, f={cfg.f}")
    return LeaderVoteConsensus(n=cfg.n, f=cfg.f, proc=proc, v=scenario.inputs[proc - 1])
