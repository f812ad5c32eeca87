"""Deterministic discrete-event execution of process automata.

One simulation instance is strictly single-threaded: a global step counter
advances once per scheduler action, and every source of nondeterminism
(scheduling, oracle sampling, per-process randomness) is derived from the
scenario seed, so (scenario, seed) -> trace is a pure function.

Channels are reliable: a broadcast reaches every process that has not
crashed, including the sender itself, whose copy is delivered immediately
(the count thresholds the algorithms wait for include their own message).
Remote copies sit in a pending pool until the scheduler picks them, which is
where asynchrony and adversarial delivery orders come from.  Messages carry
an optional round tag; a receiver only sees tags matching its current round
(later rounds stay buffered, earlier rounds are discarded at round switch).

`explore` enumerates every schedule of a small scenario as a graph search
over simulation states: delivery interleavings, process start orders and
crash placements are all branching choices.  Local computation runs eagerly
to its next blocking wait after each choice, which is sound here because an
automaton only observes its own inbox and the oracle.

A state's identity in `explore` is a flat tuple of small ints.  Each explore
call owns one `InternTable`, freed when the call returns, that numbers every
state component it meets in first-seen order: an automaton's key, an
inbox's contents, the multiset of messages pending to a receiver and the
monitor's key.  A key holds those ids, the crashed, halted and woken sets as
bit masks, and the crash budget left.  The table is a bijection on
components, so states merge exactly when their components are equal.  One
map, from each visited key to its parent's key and the action between,
is both the visited set and the source of witness schedules.

Seeded runs (`Simulation`), replays (`run_schedule`) and `explore` (on an
`_XEngine`) apply one set of transition rules, `_Engine`: the poll loop, the
guard probe and the test that every live process has halted or decided.
"""

from __future__ import annotations

import json
import random
from collections import Counter, deque
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable

from .detectors import (
    ALL_KINDS,
    DetectorSpec,
    LiveOracle,
    OracleProfile,
    OracleRuntime,
    sample_history,
)
from .model import FailurePattern, ReceiveLog, SystemConfig, correct_set

SCHEMA = 1
POLICIES = ("fifo", "random", "crash-adjacent")

Payload = tuple
AutomatonFactory = Callable[["ScenarioConfig", int, random.Random], Any]


def default_horizon(cfg: SystemConfig) -> int:
    return 50 * (cfg.f + 2) * cfg.n


class ScenarioError(ValueError):
    """A scenario that violates the model invariants or the config schema."""


def int_field(doc: dict, key: str, default: int | None = None) -> int | None:
    """`doc[key]` as an integer, or `default` if it is absent or null; a
    float, a boolean or any other JSON value is a ScenarioError."""
    value = doc.get(key)
    if value is None:
        return default
    if type(value) is not int:
        raise ScenarioError(f"{key!r} must be an integer, not {value!r}")
    return value


def _object_field(doc: dict, key: str) -> dict:
    value = doc.get(key, {})
    if not isinstance(value, dict):
        raise ScenarioError(f"{key!r} must be a JSON object, not {value!r}")
    return value


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything a reproducible run needs: who, what, when, and the seed."""

    cfg: SystemConfig
    algorithm: str
    inputs: tuple[int, ...]
    pattern: FailurePattern
    oracle_kind: str
    profile: OracleProfile = OracleProfile()
    policy: str = "fifo"
    seed: int = 0
    horizon: int | None = None
    rounds: int | None = None  # self-halt cap for non-terminating automata
    identified: bool = False

    @property
    def effective_horizon(self) -> int:
        return self.horizon if self.horizon is not None else default_horizon(self.cfg)

    def validate(self) -> None:
        horizon = self.effective_horizon
        if horizon < 1:
            raise ScenarioError("horizon must be at least 1")
        if self.rounds is not None and self.rounds < 0:
            raise ScenarioError("rounds must not be negative")
        if self.policy not in POLICIES:
            raise ScenarioError(f"unknown policy {self.policy!r} (choose from {POLICIES})")
        if self.oracle_kind not in ALL_KINDS:
            raise ScenarioError(f"unknown oracle kind {self.oracle_kind!r}")
        try:
            correct_set(self.pattern, self.cfg)
        except ValueError as exc:
            raise ScenarioError(str(exc)) from exc
        if self.pattern.crash_steps and self.pattern.last_crash >= horizon:
            raise ScenarioError(
                f"crash at step {self.pattern.last_crash} would never happen "
                f"within horizon {horizon}"
            )
        if self.profile.convergence > horizon:
            raise ScenarioError("oracle convergence lies beyond the horizon")
        if self.inputs and len(self.inputs) != self.cfg.n:
            raise ScenarioError(f"{len(self.inputs)} inputs for {self.cfg.n} processes")
        if any(v not in (0, 1) for v in self.inputs):
            raise ScenarioError("inputs must be binary")

    def reseeded(self, seed: int) -> "ScenarioConfig":
        return replace(self, seed=seed)

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "algorithm": self.algorithm,
            "n": self.cfg.n,
            "f": self.cfg.f,
            "inputs": list(self.inputs),
            "crash": {str(p): s for p, s in self.pattern.crash_steps},
            "oracle": {
                "kind": self.oracle_kind,
                "behavior": self.profile.behavior,
                "convergence": self.profile.convergence,
            },
            "policy": self.policy,
            "seed": self.seed,
            "horizon": self.horizon,
            "rounds": self.rounds,
            "identified": self.identified,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ScenarioConfig":
        if not isinstance(doc, dict):
            raise ScenarioError("a scenario must be a JSON object")
        try:
            cfg = SystemConfig(n=int(doc["n"]), f=int(doc["f"]))
            oracle = _object_field(doc, "oracle")
            scenario = cls(
                cfg=cfg,
                algorithm=str(doc["algorithm"]),
                inputs=tuple(int(v) for v in doc.get("inputs", [])),
                pattern=FailurePattern.of(
                    cfg.n, {int(p): int(s) for p, s in _object_field(doc, "crash").items()}
                ),
                oracle_kind=str(oracle.get("kind", "")),
                profile=OracleProfile(
                    behavior=str(oracle.get("behavior", "adversarial")),
                    convergence=int(oracle.get("convergence", 0)),
                ),
                policy=str(doc.get("policy", "fifo")),
                seed=int(doc.get("seed", 0)),
                horizon=int_field(doc, "horizon"),
                rounds=int_field(doc, "rounds"),
                identified=bool(doc.get("identified", False)),
            )
        except ScenarioError:
            raise
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ScenarioError(f"malformed scenario: {exc}") from exc
        scenario.validate()
        return scenario


class Inbox:
    """Round-tagged message store for one receiver.

    Messages for future rounds stay buffered until the process reaches that
    round; switching to round r discards everything tagged below r.
    Untagged messages (decision announcements) are always visible.
    """

    def __init__(self) -> None:
        self.by_round: dict[int, list[tuple[int, Payload]]] = {}
        self.untagged: list[tuple[int, Payload]] = []
        self.floor = 0
        self._key: int | None = None

    def deliver(self, sender: int, payload: Payload, round_tag: int | None) -> None:
        self._key = None
        if round_tag is None:
            self.untagged.append((sender, payload))
        elif round_tag >= self.floor:
            self.by_round.setdefault(round_tag, []).append((sender, payload))

    def advance(self, new_floor: int) -> None:
        if new_floor > self.floor:
            self._key = None
            self.floor = new_floor
            for r in [r for r in self.by_round if r < new_floor]:
                del self.by_round[r]

    def payloads(self, r: int) -> list[Payload]:
        return [payload for _, payload in self.by_round.get(r, [])]

    def senders(self, r: int, tag: str) -> list[int]:
        return [s for s, payload in self.by_round.get(r, []) if payload[0] == tag]

    def untagged_payloads(self) -> list[Payload]:
        return [payload for _, payload in self.untagged]

    def clone(self) -> "Inbox":
        other = Inbox()
        other.by_round = {r: list(items) for r, items in self.by_round.items()}
        other.untagged = list(self.untagged)
        other.floor = self.floor
        other._key = self._key
        return other

    def key(self, identified: bool, ids: InternTable) -> int:
        """The id in `ids` of this inbox's contents: the floor, then per
        round the multiset of (sender, payload) items, or of bare payloads
        for an anonymous receiver, then the untagged ones.  A multiset is
        the sorted tuple of its items' ids.  The id is cached until the
        inbox changes, so an inbox is keyed in one table only."""
        if self._key is None:

            def bag(items: list[tuple[int, Payload]]) -> tuple[int, ...]:
                return tuple(sorted([ids[item if identified else item[1]] for item in items]))

            rounds = tuple((r, bag(items)) for r, items in sorted(self.by_round.items()))
            self._key = ids[self.floor, rounds, bag(self.untagged)]
        return self._key


class InternTable(dict):
    """State components to small ints: `table[component]` is the
    component's index in first-seen order, assigned on first lookup.  A
    table is a bijection on the components it has seen, so a tuple of ids
    identifies a tuple of components."""

    def __missing__(self, component: Any) -> int:
        ident = self[component] = len(self)
        return ident


class Automaton:
    """Base for process automata: state-only objects with a cheap copy."""

    def copy(self):
        clone = object.__new__(type(self))
        clone.__dict__.update(self.__dict__)
        clone.__dict__.pop("_key_id", None)
        return clone

    def cached_key(self, ids: InternTable) -> int:
        """The id of `key()` in `ids`, cached on the automaton: safe while
        exploration only mutates fresh copies."""
        key = self.__dict__.get("_key_id")
        if key is None:
            key = self.__dict__["_key_id"] = ids[self.key()]
        return key


class Ctx:
    """The view an automaton gets during one poll: inbox, oracle, effects."""

    def __init__(self, engine: Any, proc: int):
        self._engine = engine
        self.proc = proc
        self.n = engine.cfg.n
        self.f = engine.cfg.f

    def oracle(self) -> Any:
        return self._engine.oracle_read(self.proc)

    def alive_count(self) -> int:
        reading = self.oracle()
        if not isinstance(reading, int) or isinstance(reading, bool):
            raise TypeError(f"oracle kind does not report counts: {reading!r}")
        return self.n - reading

    def msgs(self, r: int) -> list[Payload]:
        return self._engine.inboxes[self.proc].payloads(r)

    def senders(self, r: int, tag: str) -> list[int]:
        return self._engine.inboxes[self.proc].senders(r, tag)

    def untagged(self) -> list[Payload]:
        return self._engine.inboxes[self.proc].untagged_payloads()

    def broadcast(self, payload: Payload, round_tag: int | None = None) -> None:
        self._engine.do_broadcast(self.proc, payload, round_tag)

    def decide(self, value: Any, r: int | None = None) -> None:
        self._engine.do_decide(self.proc, value, r)

    def halt(self) -> None:
        self._engine.do_halt(self.proc)

    def switch_round(self, r: int, **snapshot: Any) -> None:
        self._engine.do_round(self.proc, r, snapshot)

    def emit_output(self, value: Any) -> None:
        self._engine.do_output(self.proc, value)


@dataclass
class Trace:
    """Total record of one run; everything the checkers look at."""

    scenario: ScenarioConfig
    events: list[dict]
    truncated: bool
    pending: int
    # derived from the events: proc -> [(step, value, round)], and proc -> step of each crash and halt
    decisions: dict[int, list[tuple[int, Any, Any]]] = field(init=False)
    crashes: dict[int, int] = field(init=False)
    halts: dict[int, int] = field(init=False)

    def __post_init__(self) -> None:
        self.decisions, self.crashes, self.halts = {}, {}, {}
        for ev in self.events:
            if ev["ev"] == "decide":
                self.decisions.setdefault(ev["proc"], []).append((ev["step"], ev["value"], ev["r"]))
            elif ev["ev"] == "crash":
                self.crashes[ev["proc"]] = ev["step"]
            elif ev["ev"] == "halt":
                self.halts[ev["proc"]] = ev["step"]

    @property
    def correct(self) -> frozenset[int]:
        return frozenset(p for p in self.scenario.cfg.processes if p not in self.crashes)

    def received(self, proc: int) -> Counter:
        return Counter(
            tuple(ev["payload"]) for ev in self.events if ev["ev"] == "deliver" and ev["proc"] == proc
        )

    def sends(self) -> Counter:
        return Counter(tuple(ev["payload"]) for ev in self.events if ev["ev"] == "send")

    def outputs(self, proc: int) -> list[tuple[int, Any]]:
        return [
            (ev["step"], ev["value"])
            for ev in self.events
            if ev["ev"] == "output" and ev["proc"] == proc
        ]

    def receive_log(self) -> ReceiveLog:
        log = ReceiveLog({})
        for ev in self.events:
            if ev["ev"] == "deliver":
                log.record(ev["proc"], ev["from"], ev["step"], tuple(ev["payload"]))
        return log

    def to_jsonl(self) -> str:
        lines = [json.dumps({"ev": "meta", "scenario": self.scenario.to_dict()}, sort_keys=True)]
        for ev in self.events:
            doc = dict(ev)
            if "payload" in doc:
                doc["payload"] = list(doc["payload"])
            lines.append(json.dumps(doc, sort_keys=True))
        lines.append(
            json.dumps({"ev": "end", "truncated": self.truncated, "pending": self.pending}, sort_keys=True)
        )
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(cls, text: str) -> "Trace":
        try:
            lines = [json.loads(line) for line in text.splitlines() if line.strip()]
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"trace line is not valid JSON: {exc}") from exc
        if not all(isinstance(doc, dict) for doc in lines):
            raise ScenarioError("every trace line must be a JSON object")
        if not lines or lines[0].get("ev") != "meta" or lines[-1].get("ev") != "end":
            raise ScenarioError("trace file must start with a meta line and end with an end line")
        scenario = ScenarioConfig.from_dict(lines[0].get("scenario"))
        truncated, pending = lines[-1].get("truncated"), lines[-1].get("pending")
        if not isinstance(truncated, bool) or type(pending) is not int:
            raise ScenarioError("trace end line needs a boolean 'truncated' and an integer 'pending'")
        events = [_event(doc, scenario) for doc in lines[1:-1]]
        return cls(scenario=scenario, events=events, truncated=truncated, pending=pending)


_EVENT_FIELDS = {  # the fields of each trace event besides "ev" and "step"
    "send": ("proc", "payload"), "deliver": ("proc", "from", "payload"), "oracle": ("proc", "value"),
    "decide": ("proc", "value", "r"), "round": ("proc", "r"), "output": ("proc", "value"),
    "crash": ("proc",), "halt": ("proc",),
}


def _scalar(value: Any) -> bool:
    return value is None or isinstance(value, (bool, int, float, str))


def _int_in(value: Any, low: int, high: float = float("inf")) -> bool:
    return type(value) is int and low <= value <= high


def _event(doc: dict, scenario: ScenarioConfig) -> dict:
    """A saved trace event, shaped as the simulator writes it; payloads come
    back as tuples.  Anything else is a ScenarioError."""
    kind = doc.get("ev")
    fields = _EVENT_FIELDS.get(kind) if isinstance(kind, str) else None
    if fields is None or any(key not in doc for key in ("step", *fields)):
        raise ScenarioError(f"malformed trace event {doc!r}")
    n = scenario.cfg.n
    value, payload = doc.get("value"), doc.get("payload", ["-"])  # "-": a stand-in for events without one
    malformed = (
        not _int_in(doc["step"], 0)
        or not _int_in(doc["proc"], 1, n)
        or ("from" in fields and not _int_in(doc["from"], 1, n))
        or ("r" in fields and type(doc["r"]) is not int)
        or (kind == "decide" and type(value) is not int)
        or not (_scalar(value) or isinstance(value, list) and all(map(_scalar, value)))
        or not (isinstance(payload, list) and payload and isinstance(payload[0], str))
        or not all(map(_scalar, payload))
    )
    if malformed:
        raise ScenarioError(f"malformed trace event {doc!r}")
    if "payload" in doc:
        doc["payload"] = tuple(payload)
    return doc


def build_oracle(scenario: ScenarioConfig) -> OracleRuntime:
    spec = DetectorSpec(scenario.oracle_kind, scenario.cfg.n)
    history = sample_history(
        spec,
        scenario.pattern,
        scenario.profile,
        seed=scenario.seed,
        horizon=scenario.effective_horizon,
    )
    return OracleRuntime(spec, history)


class _Engine:
    """The transition rules that seeded runs, replays and explore share.

    A subclass holds the `automata`, `inboxes`, `crashed` and `halted` of
    the execution it drives and applies the effects that automata request
    through Ctx (`do_broadcast`, `do_decide`, `do_halt`, `do_round` and
    `do_output`).  Here live the poll loop, the guard probe and the test
    that every live process has halted or decided.
    """

    def __init__(self, scenario: ScenarioConfig, factory: AutomatonFactory, oracle: Any):
        self.scenario = scenario
        self.cfg = scenario.cfg
        self.oracle = oracle
        self.t = 0
        self.automata = {
            p: factory(scenario, p, random.Random(f"{scenario.seed}/proc/{p}"))
            for p in self.cfg.processes
        }
        self.inboxes = {p: Inbox() for p in self.cfg.processes}
        self.crashed: set[int] = set()
        self.halted: set[int] = set()
        self.quiesce_limit = 1000 + 8 * (scenario.rounds or 0)

    def oracle_read(self, p: int) -> Any:
        return self.oracle.read(p, self.t, frozenset(self.crashed))

    def quiesce(self, p: int) -> None:
        """Poll p's automaton from its current wait to its next blocking one."""
        ctx = Ctx(self, p)
        for _ in range(self.quiesce_limit):
            if p in self.crashed or p in self.halted or not self.automata[p].on_poll(ctx):
                return
        raise RuntimeError(f"automaton of process {p} never blocked (runaway loop)")

    def can_progress(self, p: int) -> bool:
        """Whether p's next poll would move, judged on a throwaway copy of its
        automaton; no effect of the probe reaches this engine."""
        return self.automata[p].copy().on_poll(Ctx(_ProbeEngine(self), p))

    def all_decided(self) -> bool:
        """Every live process has halted or decided.  A decided process may
        block forever in its final propose phase once its peers halted; with
        nothing left to move, that is a completed run."""
        return all(
            p in self.crashed or p in self.halted or getattr(self.automata[p], "decided", None) is not None
            for p in self.cfg.processes
        )


class _ProbeEngine:
    """Read-only stand-in for a guard probe: a copied automaton evaluates its
    guards against the host engine's inboxes, oracle, time and crashes, and
    every effect it requests is dropped."""

    def __init__(self, host: _Engine):
        self.host = host
        self.cfg = host.cfg
        self.inboxes = host.inboxes

    def oracle_read(self, p: int) -> Any:
        return _Engine.oracle_read(self.host, p)  # unrecorded, unlike a simulation's own reads

    def _drop(self, *effect: Any) -> None:
        pass

    do_broadcast = do_decide = do_halt = do_round = do_output = _drop


def _matches(action: tuple, sender: int, payload: Payload, round_tag: int | None, identified: bool) -> bool:
    """Whether a pending message is one that the ("deliver", receiver, sender,
    payload, round_tag) action names; an anonymous receiver cannot tell
    senders apart, so any sender matches."""
    return action[3] == payload and action[4] == round_tag and (not identified or action[2] == sender)


class Simulation(_Engine):
    """Single run of a scenario under its scheduling policy."""

    def __init__(
        self,
        scenario: ScenarioConfig,
        factory: AutomatonFactory,
        oracle: Any = None,
    ):
        scenario.validate()
        super().__init__(scenario, factory, oracle if oracle is not None else build_oracle(scenario))
        self.horizon = scenario.effective_horizon
        self.rng = random.Random(f"{scenario.seed}/sched")
        self.events: list[dict] = []
        self.pending: dict[int, list[tuple[int, Payload, int | None, int]]] = {
            p: [] for p in self.cfg.processes
        }
        self._last_oracle: dict[int, Any] = {}
        self._last_output: dict[int, Any] = {}
        self._seq = 0
        self._rr = 0
        self._crash_at: dict[int, list[int]] = {}
        for p, s in scenario.pattern.crash_steps:
            self._crash_at.setdefault(s, []).append(p)

    # -- hooks used by Ctx ---------------------------------------------------

    def oracle_read(self, p: int) -> Any:
        value = super().oracle_read(p)
        if self._last_oracle.get(p, self) != value:
            self._last_oracle[p] = value
            self.events.append({"step": self.t, "ev": "oracle", "proc": p, "value": value})
        return value

    def do_broadcast(self, p: int, payload: Payload, round_tag: int | None) -> None:
        self.events.append({"step": self.t, "ev": "send", "proc": p, "payload": payload})
        self.inboxes[p].deliver(p, payload, round_tag)
        self.events.append(
            {"step": self.t, "ev": "deliver", "proc": p, "from": p, "payload": payload}
        )
        for q in self.cfg.processes:
            if q == p or q in self.crashed:
                continue
            self._seq += 1
            self.pending[q].append((p, payload, round_tag, self._seq))

    def do_decide(self, p: int, value: Any, r: Any) -> None:
        self.events.append({"step": self.t, "ev": "decide", "proc": p, "value": value, "r": r})

    def do_halt(self, p: int) -> None:
        self.halted.add(p)
        self.events.append({"step": self.t, "ev": "halt", "proc": p})

    def do_round(self, p: int, r: int, snapshot: dict) -> None:
        self.inboxes[p].advance(r)
        self.events.append({"step": self.t, "ev": "round", "proc": p, "r": r, **snapshot})

    def do_output(self, p: int, value: Any) -> None:
        if self._last_output.get(p, self) == value:
            return
        self._last_output[p] = value
        out = sorted(value) if isinstance(value, frozenset) else value
        self.events.append({"step": self.t, "ev": "output", "proc": p, "value": out})

    # -- engine internals ------------------------------------------------------

    def _crash(self, p: int) -> None:
        self.crashed.add(p)
        self.pending[p].clear()
        self.events.append({"step": self.t, "ev": "crash", "proc": p})

    def _apply_crashes(self) -> None:
        for p in self._crash_at.get(self.t, []):
            self._crash(p)

    def _live_unhalted(self) -> list[int]:
        return [p for p in self.cfg.processes if p not in self.crashed and p not in self.halted]

    def _settled(self) -> bool:
        # the run is complete when every live process halted or decided and
        # nothing can move anymore
        live = self._live_unhalted()
        return (
            self.all_decided()
            and not any(self.pending[p] for p in live)
            and not any(self.can_progress(p) for p in live)
        )

    def _done(self) -> bool:
        return not self._live_unhalted() or self._settled()

    def _deliver_index(self, p: int, idx: int) -> None:
        sender, payload, round_tag, _ = self.pending[p].pop(idx)
        self.inboxes[p].deliver(sender, payload, round_tag)
        self.events.append(
            {"step": self.t, "ev": "deliver", "proc": p, "from": sender, "payload": payload}
        )

    def _step_fifo(self) -> None:
        candidates = self._live_unhalted()
        order = sorted(candidates, key=lambda p: ((p - self._rr - 1) % self.cfg.n, p))
        p = order[0]
        self._rr = p
        if self.pending[p]:
            self._deliver_index(p, 0)
        self.quiesce(p)

    def _step_random(self) -> None:
        # delivery and process steps are independent choices, so a wait can
        # fire with more than its threshold already in the inbox
        actions: list[tuple[str, int]] = []
        for p in self._live_unhalted():
            if self.pending[p]:
                actions.append(("deliver", p))
            actions.append(("poll", p))
        kind, p = self.rng.choice(actions)
        if kind == "deliver":
            self._deliver_index(p, self.rng.randrange(len(self.pending[p])))
        else:
            self.quiesce(p)

    def _step_crash_adjacent(self) -> None:
        # post-mortem messages outrace everything else
        best: tuple[int, int, int] | None = None
        for p in self._live_unhalted():
            for idx, (sender, _, _, seq) in enumerate(self.pending[p]):
                if sender in self.crashed and (best is None or seq < best[0]):
                    best = (seq, p, idx)
        if best is not None:
            _, p, idx = best
            self._deliver_index(p, idx)
            self.quiesce(p)
        else:
            self._step_fifo()

    def _drain(self) -> None:
        for p in sorted(self.cfg.processes):
            if p in self.crashed:
                continue
            while self.pending[p]:
                self._deliver_index(p, 0)

    def run(self) -> Trace:
        step = {
            "fifo": self._step_fifo,
            "random": self._step_random,
            "crash-adjacent": self._step_crash_adjacent,
        }[self.scenario.policy]
        while self.t < self.horizon:
            self._apply_crashes()
            if self._done():
                break
            step()
            self.t += 1
        return self._finish()

    def _finish(self) -> Trace:
        """The trace so far; a finished run first delivers what is in flight."""
        truncated = not self._done()
        pending = sum(len(q) for p, q in self.pending.items() if p not in self.crashed)
        if not truncated:
            self._drain()
            pending = 0
        return Trace(scenario=self.scenario, events=self.events, truncated=truncated, pending=pending)


def run(scenario: ScenarioConfig, factory: AutomatonFactory) -> Trace:
    return Simulation(scenario, factory).run()


def run_schedule(
    scenario: ScenarioConfig,
    factory: AutomatonFactory,
    schedule: Iterable[tuple],
) -> Trace:
    """Re-execute an explicit explore schedule, producing a full trace.

    Actions are ("wake", p), ("poll", p), ("crash", p) or ("deliver", p,
    sender, payload, round_tag) exactly as explore() reports them; the
    oracle is the same truthful live oracle exploration uses.  An action
    naming no process in 1..n, or delivering no pending message, is a
    ScenarioError.
    """
    sim = Simulation(scenario, factory, oracle=LiveOracle(scenario.oracle_kind, scenario.cfg.n))
    for action in schedule:
        kind, p = action[0], action[1]
        if type(p) is not int or p not in sim.cfg.processes:
            raise ScenarioError(f"schedule action {list(action)} names no process in 1..{sim.cfg.n}")
        if kind in ("wake", "poll"):
            sim.quiesce(p)
        elif kind == "crash":
            sim._crash(p)
        elif kind == "deliver":
            _, _, sender, payload, round_tag = action
            action = (kind, p, sender, tuple(payload), round_tag)
            matching = (
                i
                for i, (s, pl, rt, _) in enumerate(sim.pending[p])
                if _matches(action, s, pl, rt, scenario.identified)
            )
            idx = next(matching, None)
            if idx is None:
                raise ScenarioError(f"schedule action {list(action)} matches no pending message")
            sim._deliver_index(p, idx)
        else:
            raise ScenarioError(f"unknown schedule action {kind!r}")
        sim.t += 1
    return sim._finish()


# --- exhaustive schedule exploration -----------------------------------------


class NullMonitor:
    """The monitor protocol, and the monitor that checks nothing.

    `explore` gives each explored state its own monitor and calls its hooks
    as that state's events happen:

    * `on_send(state, p, payload)` when p broadcasts, before any copy is
      delivered;
    * `on_decide(state, p, value, r)` when p decides;
    * `on_round(state, p, r)` when p switches to round r;
    * `on_output(state, p, value)` when p emits a detector output;
    * `on_crash(state, p)` when a crash action strikes p.

    A state whose `violation()` is not None is not expanded: its verdict is
    reported as an invariant violation.  At a terminal state (every live
    process halted or decided, no enabled action) `terminal_checks` lists
    its failures and `terminal_profile` names its outcome.

    `key()` joins the state's identity, so it must fold in every field that
    a later verdict can depend on; states with equal keys merge.  `clone()`
    gives each child a shallow copy of the parent's fields, so a hook must
    replace a container field with a new one, never change it in place.
    A subclass writes the hooks it checks and inherits the rest; setting
    `flag` makes `violation()` report it.
    """

    flag: str | None = None

    def ignore(self, state: "_XState", *event: Any) -> None:
        """The hook of an event the monitor does not check."""

    on_send = on_decide = on_round = on_output = on_crash = ignore

    def clone(self) -> "NullMonitor":
        clone = object.__new__(type(self))
        clone.__dict__.update(self.__dict__)
        return clone

    def key(self) -> tuple:
        return ()

    def violation(self) -> str | None:
        return self.flag

    def terminal_checks(self, state: "_XState") -> list[str]:
        return []

    def terminal_profile(self, state: "_XState") -> tuple:
        return (tuple(sorted(state.crashed)),)


class _XState:
    __slots__ = ("automata", "inboxes", "pending", "crashed", "halted", "woken", "crashes_left", "monitor")

    def __init__(self, automata, inboxes, pending, crashed, halted, woken, crashes_left, monitor):
        self.automata = automata
        self.inboxes = inboxes
        self.pending = pending  # list of (receiver, sender, payload, round_tag, message id)
        self.crashed = crashed
        self.halted = halted
        self.woken = woken
        self.crashes_left = crashes_left
        self.monitor = monitor

    def clone(self) -> "_XState":
        # copy-on-write: automata and inboxes are shared until an action
        # touches them (_XEngine.apply swaps in a private copy first)
        return _XState(
            automata=dict(self.automata),
            inboxes=dict(self.inboxes),
            pending=list(self.pending),
            crashed=set(self.crashed),
            halted=set(self.halted),
            woken=set(self.woken),
            crashes_left=self.crashes_left,
            monitor=self.monitor.clone(),
        )

    def key(self, identified: bool, ids: InternTable) -> tuple[int, ...]:
        """The state's identity, a flat tuple of small ints: per process the
        ids of its automaton, of its inbox and of the multiset of messages
        pending to it (the sorted tuple of their message ids), then the
        crashed, halted and woken sets as bit masks, the crash budget left
        and the id of the monitor's key.  Two states of one explore call
        share a key exactly when their components are equal."""
        pending: dict[int, list[int]] = {p: [] for p in self.automata}
        for m in self.pending:
            pending[m[0]].append(m[4])
        key: list[int] = []
        for p, automaton in self.automata.items():
            key += (
                automaton.cached_key(ids),
                self.inboxes[p].key(identified, ids),
                ids[tuple(sorted(pending[p]))],
            )
        key += (
            sum(map(_BIT, self.crashed)),
            sum(map(_BIT, self.halted)),
            sum(map(_BIT, self.woken)),
            self.crashes_left,
            ids[self.monitor.key()],
        )
        return tuple(key)


_BIT = (1).__lshift__  # p -> the bit of process p; a set of processes is the sum of its bits


class _XEngine(_Engine):
    """Explore's engine: the shared rules applied to explored states.  The
    poll loop and the guard probe run on the state that `load` last pointed
    the engine at, whose containers they read and change in place; the
    effects feed that state's monitor."""

    def __init__(self, scenario: ScenarioConfig, factory: AutomatonFactory, monitor: Any,
                 crashes_left: int, crash_round_limit: int | None):
        super().__init__(scenario, factory, LiveOracle(scenario.oracle_kind, scenario.cfg.n))
        self.crash_round_limit = crash_round_limit
        self.ids = InternTable()  # lives as long as this engine: one explore call
        self.state = _XState(
            self.automata, self.inboxes, [], self.crashed, self.halted, set(), crashes_left, monitor
        )

    def load(self, state: _XState) -> "_XEngine":
        self.state = state
        self.automata, self.inboxes = state.automata, state.inboxes
        self.crashed, self.halted = state.crashed, state.halted
        return self

    def actions(self, st: _XState) -> list[tuple]:
        """The enabled actions of a state; one deliver action per class of
        pending messages a receiver cannot tell apart."""
        self.load(st)
        acts: list[tuple] = []
        for p in self.cfg.processes:
            if p in st.crashed or p in st.halted:
                continue
            if p not in st.woken:
                acts.append(("wake", p))
            elif self.can_progress(p):
                acts.append(("poll", p))
            if st.crashes_left > 0 and (
                self.crash_round_limit is None
                or getattr(st.automata[p], "r", 0) <= self.crash_round_limit
            ):
                acts.append(("crash", p))
        seen: set[tuple] = set()
        for receiver, sender, payload, round_tag, message in st.pending:
            if (receiver, message) not in seen:
                seen.add((receiver, message))
                acts.append(("deliver", receiver, sender, payload, round_tag))
        return acts

    def apply(self, st: _XState, action: tuple) -> None:
        kind, p = action[0], action[1]
        if kind == "crash":
            st.crashed.add(p)
            st.crashes_left -= 1
            st.pending = [m for m in st.pending if m[0] != p]
            st.monitor.on_crash(st, p)
        elif kind == "deliver":
            idx = next(
                i for i, m in enumerate(st.pending)
                if m[0] == p and _matches(action, m[1], m[2], m[3], self.scenario.identified)
            )
            del st.pending[idx]
            st.inboxes[p] = st.inboxes[p].clone()
            st.inboxes[p].deliver(*action[2:])
        else:  # wake or poll, on private copies of what the poll changes
            st.woken.add(p)
            st.automata[p] = st.automata[p].copy()
            st.inboxes[p] = st.inboxes[p].clone()
            self.load(st).quiesce(p)

    def do_broadcast(self, p: int, payload: Payload, round_tag: int | None) -> None:
        st = self.state
        st.monitor.on_send(st, p, payload)
        st.inboxes[p].deliver(p, payload, round_tag)
        # the message id: what the receiver can tell apart
        message = self.ids[(p, payload, round_tag) if self.scenario.identified else (payload, round_tag)]
        for q in self.cfg.processes:
            if q != p and q not in st.crashed and q not in st.halted:
                st.pending.append((q, p, payload, round_tag, message))

    def do_decide(self, p: int, value: Any, r: Any) -> None:
        self.state.monitor.on_decide(self.state, p, value, r)

    def do_halt(self, p: int) -> None:
        st = self.state
        st.halted.add(p)
        st.pending = [m for m in st.pending if m[0] != p]

    def do_round(self, p: int, r: int, snapshot: dict) -> None:
        self.state.inboxes[p].advance(r)
        self.state.monitor.on_round(self.state, p, r)

    def do_output(self, p: int, value: Any) -> None:
        self.state.monitor.on_output(self.state, p, value)


KEEP_WITNESSES = 10  # violations `explore` keeps a schedule for; the rest are only counted


@dataclass
class Violation:
    check: str
    detail: str
    schedule: list[tuple]


@dataclass
class ExploreResult:
    states: int
    terminals: int
    violations: list[Violation]
    violation_count: int
    partial: bool
    terminal_profiles: Counter
    children: int  # child states built, new or not
    peak_frontier: int  # most states discovered but not yet expanded at once

    @property
    def ok(self) -> bool:
        return self.violation_count == 0 and not self.partial


def explore(
    scenario: ScenarioConfig,
    factory: AutomatonFactory,
    monitor: Any = None,
    max_crashes: int | None = None,
    max_states: int = 1_500_000,
    crash_round_limit: int | None = None,
) -> ExploreResult:
    """Enumerate every schedule of a small scenario (n <= 3).

    Branching choices: which process starts, which pending message class is
    delivered to whom, when a process takes a step (runs from its blocking
    wait to the next one), and where up to `max_crashes` crashes strike.
    Message delivery and process steps are independent choices, so a wait
    can be evaluated with any superset of the messages that first satisfy
    it.  States reached by different interleavings merge: the search is
    over the reachable state graph, with the monitor's accumulated verdicts
    folded into the state identity.  The oracle is the truthful live oracle
    (its reading is a function of the crashes chosen so far).

    `crash_round_limit` restricts crash placements to processes whose round
    counter is still at or below the limit.  Round-capped transformations
    need it: their completeness clauses are eventual, so only crashes that
    leave enough rounds before the cap can be witnessed by the final state.
    """
    scenario.validate()
    if scenario.cfg.n > 3:
        raise ScenarioError("exhaustive exploration is limited to n <= 3")
    if max_states < 1:
        raise ScenarioError(f"the state budget must be at least 1, not {max_states}")
    if scenario.pattern.crash_steps:
        raise ScenarioError(
            "exploration chooses crash placements itself; use an empty crash map"
        )
    engine = _XEngine(
        scenario,
        factory,
        monitor if monitor is not None else NullMonitor(),
        scenario.cfg.f if max_crashes is None else max_crashes,
        crash_round_limit,
    )
    identified, ids = scenario.identified, engine.ids
    init = engine.state
    init_key = init.key(identified, ids)
    # the visited map: a state's key -> (its parent's key, the action between)
    parents: dict[tuple, tuple | None] = {init_key: None}
    # reaching the budget ends the search, the initial state's included
    partial = len(parents) >= max_states
    queue: deque[tuple[_XState, tuple]] = deque() if partial else deque([(init, init_key)])

    def schedule_of(key: tuple) -> list[tuple]:
        chain: list[tuple] = []
        while parents[key] is not None:
            key, action = parents[key]
            chain.append(action)
        chain.reverse()
        return chain

    terminals = 0
    violations: list[Violation] = []
    violation_count = 0
    profiles: Counter = Counter()
    children = 0
    peak_frontier = 1

    while queue:
        state, key = queue.popleft()
        broken = state.monitor.violation()
        acts = engine.actions(state) if broken is None else []
        if acts:
            for action in acts:
                child = state.clone()
                engine.apply(child, action)
                children += 1
                child_key = child.key(identified, ids)
                if child_key in parents:
                    continue
                parents[child_key] = (key, action)
                queue.append((child, child_key))
                peak_frontier = max(peak_frontier, len(queue))
                if len(parents) >= max_states:
                    partial = True
                    queue.clear()
                    break
            continue
        if broken is not None:
            found = [("invariant", broken)]
        elif engine.load(state).all_decided():
            terminals += 1
            profiles[state.monitor.terminal_profile(state)] += 1
            found = [("terminal", detail) for detail in state.monitor.terminal_checks(state)]
        else:
            found = [("stuck", "no enabled action but an undecided live process never halted")]
        violation_count += len(found)
        for check, detail in found[: KEEP_WITNESSES - len(violations)]:
            violations.append(Violation(check, detail, schedule_of(key)))

    return ExploreResult(
        states=len(parents),
        terminals=terminals,
        violations=violations,
        violation_count=violation_count,
        partial=partial,
        terminal_profiles=profiles,
        children=children,
        peak_frontier=peak_frontier,
    )
