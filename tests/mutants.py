"""Deliberately broken automata.

Each mutant removes exactly one safeguard from a protocol, and exists to
prove the corresponding checker is not vacuous: a campaign over a mutant
must produce at least one failing trace per documented pairing:

* ``flood_min``      adopts the minimum instead of the maximum   -> stubbornness
* ``eager_lock``     locks its value even on mixed proposals     -> lock-exclusivity
* ``lonely_lock``    satisfies every wait with a single message  -> agreement
* ``even_lock``      decides, and halts once decided, only in    -> decision-spread
                     even rounds
* ``any_report``     treats any reported value as a majority     -> unique-decide
* ``free_running``   passes the alive wait on its own message    -> round-skew
* ``hasty_suspector``suspects without the f+2 stability window   -> strong accuracy
                                                                    (perfect-detector validity)

Never wire these into production scenarios.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable

from anonsim.consensus import FloodMaxConsensus, LeaderVoteConsensus, LockMinConsensus, flood_max, leader_vote, lock_min
from anonsim.simulator import Ctx
from anonsim.transforms import StableSuspector, stable_suspector


@dataclass
class FloodMinConsensus(FloodMaxConsensus):
    def _merge(self, values: set[int]) -> int:
        return min(values)


@dataclass
class EagerLockConsensus(LockMinConsensus):
    def _lock_rule(self, proposed: set[int]) -> int | None:
        return self.v


@dataclass
class LonelyLockConsensus(LockMinConsensus):
    def _need(self, ctx: Ctx) -> int:
        return 1


@dataclass
class EvenLockConsensus(LockMinConsensus):
    """Acts on a unanimous lock only in even rounds: a process that sees one
    in an odd round goes on to the next, and a decided process stays
    until an even round's Lock is sent, so that the others can catch up
    and decide two rounds after it, on the value it decided."""

    def _decide(self, ctx: Ctx, value: int, halt: bool) -> None:
        if self.r % 2 == 0:
            super()._decide(ctx, value, halt)

    def on_poll(self, ctx: Ctx) -> bool:
        if self.phase == "lock-send" and self.decided is not None and self.r % 2:
            ctx.broadcast(("Lock", self.r, self.lock, self.v), round_tag=self.r)
            self.phase = "lock-wait"
            return True
        return super().on_poll(ctx)


@dataclass
class AnyReportLeaderVote(LeaderVoteConsensus):
    def _majority(self, counts: Counter) -> int | None:
        return min(counts) if counts else None


@dataclass
class FreeRunningSuspector(StableSuspector):
    def on_poll(self, ctx: Ctx) -> bool:
        if self.phase == "wait" and ctx.senders(self.r, "ALIVE"):
            # any single heartbeat satisfies the mutant's wait
            self.earlier_alive = frozenset(ctx.senders(self.r, "ALIVE")[:1])
            self.r += 1
            ctx.switch_round(self.r)
            self.phase = "send"
            return True
        return super().on_poll(ctx)


@dataclass
class HastySuspector(StableSuspector):
    def _stable_enough(self) -> bool:
        return True


def _mutant(cls: type, protocol: Callable) -> Callable:
    """The factory of a mutant, built exactly as `protocol` builds the automaton it mutates."""
    return lambda scenario, proc: cls(**vars(protocol(scenario, proc)))


flood_min = _mutant(FloodMinConsensus, flood_max)
eager_lock = _mutant(EagerLockConsensus, lock_min)
lonely_lock = _mutant(LonelyLockConsensus, lock_min)
even_lock = _mutant(EvenLockConsensus, lock_min)
any_report = _mutant(AnyReportLeaderVote, leader_vote)
free_running = _mutant(FreeRunningSuspector, stable_suspector)
hasty_suspector = _mutant(HastySuspector, stable_suspector)


MUTANTS = {
    "flood-min": ("floodmax", "stubbornness", flood_min),
    "eager-lock": ("lockmin", "lock-exclusivity", eager_lock),
    "lonely-lock": ("lockmin", "agreement", lonely_lock),
    "even-lock": ("lockmin", "decision-spread", even_lock),
    "any-report": ("leadervote", "unique-decide", any_report),
    "free-running": ("stable-suspector", "round-skew", free_running),
    "hasty-suspector": ("stable-suspector", "strong-accuracy", hasty_suspector),
}
