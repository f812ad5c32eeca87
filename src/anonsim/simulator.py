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

A state's identity in `explore` is a sequence of small ints, packed 2 bytes
each into a `bytes` key.  Each explore call owns one `InternTable`, freed
when the call returns, that numbers every state component it meets in
first-seen order: an automaton's key (its non-constant fields), an inbox's
contents, the multiset of messages pending to a receiver and the monitor's
key.  A key holds those ids and the crashed, halted and woken sets as bit
masks.  The table is a bijection on components, so states merge exactly
when their components are equal.  A search whose table outgrows 2-byte
slots, or whose masks do (n >= 16), runs with 4-byte slots; being
deterministic, it finds the same result either way.  The visited states are
a set of keys and nothing more: each state, numbered in discovery order,
finds its parent's number and the action between in two arrays, from which
a witness schedule is read back.

An explored state holds its key's slots and what the slots only name: its
automata, inboxes, pending messages and monitor.  The slots are the only
record of the crashed, halted and woken sets; the crash budget left is f
less the crashed count.  A child shares its parent's maps of automata and
of inboxes and its pending list, and copies one only if its action
replaces an item of it, so no built state's container is changed
afterwards; a delivery child shares its parent's monitor too.

Only the initial state's slots are computed from scratch: a child's are its
parent's with those its action changed rewritten.  `_XEngine` memoizes, for
the whole call, a probe's verdict under p's local state, a wake's or a
poll's whole outcome under p's local state and what its sends and hooks
read beyond it (the halted mask, the monitor's id and the fields the
monitor declares of each uncrashed peer), and a delivery's under the ids
it reads; the memos last no longer, since keys leave out the round and
tick caps that differ between calls.
Every child, of a delivery, a crash, a wake or a poll, has its key derived
from its parent's before it is built, and one place in the search checks
that key: a child whose key was visited is counted and skipped, never
built, so `explore` builds exactly the states it finds new.  A wake or a
poll whose outcome is not memoized yet runs once on a scratch copy of its
parent, which records the outcome the child is then derived from.

Seeded runs (`Simulation`), replays (`run_schedule`) and `explore` (on an
`_XEngine`) apply one set of transition rules, `_Engine`: the poll loop, the
guard probe and the one finished-run test, `all_decided`.  They share one
action vocabulary too: ("wake"|"poll", p), ("crash", p) and a deliver,
which in a seeded run names an index into `pending[p]`.  A
simulation runs an action through `Simulation.apply`, and `explore` derives
its child through `_XEngine`'s `delivered`, `crash` and `polled`.  A policy
is a picker in `POLICIES` that chooses the actions of one scheduler step;
the scheduled crashes, the final drain and a replayed schedule go through
`Simulation.apply` as well.
"""

from __future__ import annotations

import json
import random
from array import array
from collections import Counter, deque
from dataclasses import dataclass, field, fields, replace
from operator import attrgetter
from typing import Any, Callable, Iterable

from .detectors import (
    ALL_KINDS,
    DetectorSpec,
    LiveOracle,
    OracleProfile,
    OracleRuntime,
    sample_history,
)
from .model import FailurePattern, SystemConfig, cell_to_json, check_budget, pattern_from_dict

SCHEMA = 1

Payload = tuple
# (scenario, proc) -> the automaton of process proc; a factory that draws
# seeds its own generator from the scenario seed
AutomatonFactory = Callable[["ScenarioConfig", int], Any]


# The most cells an oracle table may hold, n x (horizon + 1).  A seeded run
# draws only the cells it reads and those before them in the draw order, but
# a table's `rows`, which the validators, serialization and permutations
# read, holds it whole.  At the cap, a count table builds whole in about
# 0.05 s and 40 MB, and the slowest table, an adversarial perfect or
# eventually-perfect history converging at the horizon (one `random()` per
# process per cell), in under 1 s and 40 MB.
MAX_TABLE_CELLS = 1 << 20


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


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything a reproducible run needs: who, what, when, and the seed.

    A scenario checks the model's rules when it is built, so every one is
    valid, a `replace`d or `reseeded` copy included.
    """

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

    def __post_init__(self) -> None:
        horizon = self.effective_horizon
        if horizon < 1:
            raise ScenarioError(f"horizon must be at least 1, not {horizon}")
        cells = self.cfg.n * (horizon + 1)
        if cells > MAX_TABLE_CELLS:
            raise ScenarioError(
                f"an oracle table of n x (horizon + 1) = {cells} cells is above the cap of "
                f"{MAX_TABLE_CELLS}; lower the horizon"
            )
        if self.rounds is not None and self.rounds < 0:
            raise ScenarioError("rounds must not be negative")
        if self.policy not in POLICIES:
            raise ScenarioError(f"unknown policy {self.policy!r} (choose from {', '.join(POLICIES)})")
        if self.oracle_kind not in ALL_KINDS:
            raise ScenarioError(f"unknown oracle kind {self.oracle_kind!r}")
        try:
            check_budget(self.pattern, self.cfg)
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
        if int_field(doc, "schema", SCHEMA) != SCHEMA:
            raise ScenarioError(f"unsupported scenario schema {doc['schema']!r}")
        oracle = doc.get("oracle", {})
        if not isinstance(oracle, dict):
            raise ScenarioError(f"'oracle' must be a JSON object, not {oracle!r}")
        inputs, identified = doc.get("inputs", []), doc.get("identified", False)
        if not isinstance(inputs, list) or any(type(v) is not int for v in inputs):
            raise ScenarioError("inputs must be a list of integers")
        if type(identified) is not bool:
            raise ScenarioError(f"'identified' must be true or false, not {identified!r}")
        try:
            cfg, pattern = pattern_from_dict(doc)
            return cls(
                cfg=cfg,
                algorithm=str(doc["algorithm"]),
                inputs=tuple(inputs),
                pattern=pattern,
                oracle_kind=str(oracle.get("kind", "")),
                profile=OracleProfile(
                    behavior=str(oracle.get("behavior", "adversarial")),
                    convergence=int_field(oracle, "convergence", 0),
                ),
                policy=str(doc.get("policy", "fifo")),
                seed=int_field(doc, "seed", 0),
                horizon=int_field(doc, "horizon"),
                rounds=int_field(doc, "rounds"),
                identified=identified,
            )
        except ScenarioError:
            raise
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ScenarioError(f"malformed scenario: {exc}") from exc


class Inbox:
    """Round-tagged message store for one receiver.

    Messages for future rounds stay buffered until the process reaches that
    round; switching to round r discards everything tagged below r.
    Untagged messages (decision announcements) are always visible.  A read
    gets the messages of one tag, a payload's first item.  Each
    round's items, and the untagged ones, form a tuple that a delivery
    replaces, so a clone shares every round with its original.  An inbox
    holds its contents and nothing else: `explore`'s engine keeps the ids
    it gives them.
    """

    def __init__(self) -> None:
        self.by_round: dict[int, tuple[tuple[int, Payload], ...]] = {}
        self.untagged: tuple[tuple[int, Payload], ...] = ()
        self.floor = 0

    def deliver(self, sender: int, payload: Payload, round_tag: int | None) -> None:
        if round_tag is None:
            self.untagged += ((sender, payload),)
        elif round_tag >= self.floor:
            self.by_round[round_tag] = self.by_round.get(round_tag, ()) + ((sender, payload),)

    def advance(self, new_floor: int) -> None:
        if new_floor > self.floor:
            self.floor = new_floor
            for r in [r for r in self.by_round if r < new_floor]:
                del self.by_round[r]

    def payloads(self, r: int, tag: str) -> list[Payload]:
        return [payload for _, payload in self.by_round.get(r, ()) if payload[0] == tag]

    def senders(self, r: int, tag: str) -> list[int]:
        return [s for s, payload in self.by_round.get(r, ()) if payload[0] == tag]

    def untagged_payloads(self, tag: str) -> list[Payload]:
        return [payload for _, payload in self.untagged if payload[0] == tag]

    def clone(self) -> "Inbox":
        other = Inbox()
        other.by_round = dict(self.by_round)
        other.untagged = self.untagged
        other.floor = self.floor
        return other

    def key(self, identified: bool, ids: InternTable) -> int:
        """The id in `ids` of this inbox's contents: the floor, then per
        round the multiset of (sender, payload) items, or of bare payloads
        for an anonymous receiver, then the untagged ones.  A multiset is
        the sorted tuple of its items' ids."""

        def bag(items: tuple[tuple[int, Payload], ...]) -> tuple[int, ...]:
            return tuple(sorted([ids[item if identified else item[1]] for item in items]))

        rounds = tuple((r, bag(items)) for r, items in sorted(self.by_round.items()))
        return ids[self.floor, rounds, bag(self.untagged)]


class _IdsOutgrown(Exception):
    """An intern table was asked for more ids than its capacity."""


class InternTable(dict):
    """State components to small ints: `table[component]` is the
    component's index in first-seen order, assigned on first lookup, and
    `table.components[ident]` the component back.  A table is a bijection
    on the components it has seen, so a tuple of ids identifies a tuple of
    components.  A table of a given capacity raises `_IdsOutgrown` instead
    of minting an id that large."""

    def __init__(self, capacity: float = float("inf")) -> None:
        super().__init__()
        self.components: list = []
        self.capacity = capacity

    def __missing__(self, component: Any) -> int:
        ident = len(self.components)
        if ident >= self.capacity:
            raise _IdsOutgrown(ident)
        self[component] = ident
        self.components.append(component)
        return ident


class _StateGetters(dict):
    """Each automaton class to the getter of its compared fields."""

    def __missing__(self, cls: type) -> attrgetter:
        getter = self[cls] = attrgetter(*(f.name for f in fields(cls) if f.compare))
        return getter


_STATE_OF = _StateGetters()


@dataclass
class Automaton:
    """Base for process automata: state-only dataclasses with a cheap copy.
    `key()`, an automaton's identity in `explore`, is its fields in
    declaration order, less the constants of the process (n, f, proc, a
    cap), which are declared `field(compare=False)`: no key holds `proc`.
    An automaton holds its fields and nothing else: `explore`'s engine
    keeps the ids it gives keys."""

    n: int = field(compare=False)
    f: int = field(compare=False)
    proc: int = field(compare=False)

    def key(self) -> tuple:
        return _STATE_OF[type(self)](self)

    def copy(self):
        clone = object.__new__(type(self))
        clone.__dict__.update(self.__dict__)
        return clone


class Ctx:
    """The view an automaton gets during one poll: inbox, oracle, effects."""

    def __init__(self, engine: Any, proc: int):
        self._engine = engine
        self.proc = proc
        self.n = engine.cfg.n

    def oracle(self) -> Any:
        return self._engine.oracle_read(self.proc)

    def alive_count(self) -> int:
        reading = self._engine.oracle_read(self.proc)
        if not isinstance(reading, int) or isinstance(reading, bool):
            raise TypeError(f"oracle kind does not report counts: {reading!r}")
        return self.n - reading

    def msgs(self, r: int, tag: str) -> list[Payload]:
        return self._engine.inboxes[self.proc].payloads(r, tag)

    def senders(self, r: int, tag: str) -> list[int]:
        return self._engine.inboxes[self.proc].senders(r, tag)

    def untagged(self, tag: str) -> list[Payload]:
        return self._engine.inboxes[self.proc].untagged_payloads(tag)

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
    crashes: dict[int, int] = field(init=False)  # proc -> the step of its crash, derived from the events

    def __post_init__(self) -> None:
        self.crashes = {ev["proc"]: ev["step"] for ev in self.events if ev["ev"] == "crash"}

    def to_jsonl(self) -> str:
        """One line per event between a meta and an end line, each byte for
        byte `json.dumps(line, sort_keys=True)`.

        An event of a kind in `_EVENT_LINES`, with exactly that kind's keys
        and an exact `int` in "step" and "proc", is written by its kind's
        f-string, and any other event by one shared encoder.  Within such a
        line an exact `int` is written by `int.__repr__`, as json does, and
        any other value is encoded once per object: its text is memoized by
        object identity, never by equality (`1 == True`), which holds only
        because the events hold those objects for the whole call.  So a
        payload that a send shares with its deliveries is encoded once.
        """
        encode = json.JSONEncoder(sort_keys=True).encode
        texts: dict[int, str] = {}

        def text(value: Any) -> str:
            if type(value) is int:
                return int.__repr__(value)
            known = texts.get(id(value))
            if known is None:
                known = texts[id(value)] = encode(value)
            return known

        lines = [encode({"ev": "meta", "scenario": self.scenario.to_dict()})]
        shapes = _EVENT_LINES
        for ev in self.events:
            line = None
            try:
                size, render = shapes[ev["ev"]]
                step, proc = ev["step"], ev["proc"]
                if len(ev) == size and type(step) is type(proc) is int:
                    line = render(ev, step, proc, text)
            except (KeyError, TypeError):  # no "ev", an unhashable or unknown kind, or a missing field
                pass
            lines.append(encode(ev) if line is None else line)
        lines.append(encode({"ev": "end", "truncated": self.truncated, "pending": self.pending}))
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
        steps = [0, *(ev["step"] for ev in events), scenario.effective_horizon]
        if steps != sorted(steps):
            raise ScenarioError(f"trace events must come in step order, none past the horizon {steps[-1]}")
        return cls(scenario=scenario, events=events, truncated=truncated, pending=pending)


_EVENT_FIELDS = {  # the fields of each trace event besides "ev" and "step"
    "send": ("proc", "payload"), "deliver": ("proc", "from", "payload"), "oracle": ("proc", "value"),
    "decide": ("proc", "value", "r"), "round": ("proc", "r"), "output": ("proc", "value"),
    "crash": ("proc",), "halt": ("proc",),
}


# The line of each event kind in the shape the engine writes it, for
# `Trace.to_jsonl`: kind -> (key count, renderer of (event, step, proc,
# text)).  `to_jsonl` renders an event that has the key count and an exact
# int in "step" and "proc"; a renderer reads every other key of its shape,
# so a missing one raises KeyError, and an event that renders has exactly
# those keys.  `text` writes any other value as json does.  A round's shape
# has a `v` snapshot, as floodmax and leadervote write it; lockmin's rounds,
# which add `lock`, go to the encoder.
_EVENT_LINES = {
    "send": (4, lambda ev, step, proc, text:
             f'{{"ev": "send", "payload": {text(ev["payload"])}, "proc": {proc}, "step": {step}}}'),
    "deliver": (5, lambda ev, step, proc, text:
                f'{{"ev": "deliver", "from": {text(ev["from"])}, "payload": {text(ev["payload"])}, '
                f'"proc": {proc}, "step": {step}}}'),
    "decide": (5, lambda ev, step, proc, text:
               f'{{"ev": "decide", "proc": {proc}, "r": {text(ev["r"])}, "step": {step}, '
               f'"value": {text(ev["value"])}}}'),
    "round": (5, lambda ev, step, proc, text:
              f'{{"ev": "round", "proc": {proc}, "r": {text(ev["r"])}, "step": {step}, "v": {text(ev["v"])}}}'),
    "oracle": (4, lambda ev, step, proc, text:
               f'{{"ev": "oracle", "proc": {proc}, "step": {step}, "value": {text(ev["value"])}}}'),
    "output": (4, lambda ev, step, proc, text:
               f'{{"ev": "output", "proc": {proc}, "step": {step}, "value": {text(ev["value"])}}}'),
    "crash": (3, lambda ev, step, proc, text: f'{{"ev": "crash", "proc": {proc}, "step": {step}}}'),
    "halt": (3, lambda ev, step, proc, text: f'{{"ev": "halt", "proc": {proc}, "step": {step}}}'),
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
    history = sample_history(
        DetectorSpec(scenario.oracle_kind, scenario.cfg.n),
        scenario.pattern,
        scenario.profile,
        seed=scenario.seed,
        horizon=scenario.effective_horizon,
    )
    return OracleRuntime(history)


class _Engine:
    """The transition rules that seeded runs, replays and explore share.

    A subclass holds the `automata`, `inboxes`, `crashed` and `halted` of
    the execution it drives and applies the effects that automata request
    through Ctx (`do_broadcast`, `do_decide`, `do_halt`, `do_round` and
    `do_output`).  `crashed` and `halted` are frozensets that a crash or a
    halt replaces, never changes, so explored states can share them.  Here
    live the poll loop, the guard probe and the one finished-run test,
    `all_decided`, which seeded runs and explore call on their live processes.
    """

    def __init__(self, scenario: ScenarioConfig, factory: AutomatonFactory, oracle: Any):
        self.scenario = scenario
        self.cfg = scenario.cfg
        self.oracle = oracle
        self.t = 0
        self.automata = {p: factory(scenario, p) for p in self.cfg.processes}
        self.inboxes = {p: Inbox() for p in self.cfg.processes}
        self.crashed: frozenset[int] = frozenset()
        self.halted: frozenset[int] = frozenset()
        self.quiesce_limit = 1000 + 8 * (scenario.rounds or 0)

    def oracle_read(self, p: int) -> Any:
        return self.oracle.read(p, self.t, self.crashed)

    def quiesce(self, p: int) -> None:
        """Poll p's automaton from its current wait to its next blocking one.
        No poll crashes a process or replaces an automaton, so both are read
        once; a poll may halt p."""
        if p in self.crashed:
            return
        ctx, on_poll = Ctx(self, p), self.automata[p].on_poll
        for _ in range(self.quiesce_limit):
            if p in self.halted or not on_poll(ctx):
                return
        raise RuntimeError(f"automaton of process {p} never blocked (runaway loop)")

    def can_progress(self, p: int) -> bool:
        """Whether p's next poll would move, judged on a throwaway copy of its
        automaton; no effect of the probe reaches this engine."""
        return self.automata[p].copy().on_poll(Ctx(_ProbeEngine(self), p))

    def all_decided(self, live: Iterable[int]) -> bool:
        """Every process of `live`, the live unhalted ones, has decided.  A
        decided process may block forever in its final propose phase once its
        peers halted; with nothing left to move, that is a completed run."""
        automata = self.automata
        for p in live:
            if getattr(automata[p], "decided", None) is None:
                return False
        return True


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


class Simulation(_Engine):
    """Single run of a scenario under its scheduling policy.

    The scheduler's state is kept between steps, not recomputed at each.
    `live` lists the live, unhalted processes in index order; it gets a new
    list only from a crash (in `apply`) and a halt (`do_halt`), the two
    actions that change it, and the policies and `_settled` read it.
    `choices` is the random policy's list: for each process in `live`, a
    ("deliver", p) if anything is pending to p, then ("poll", p).  What
    makes it stale sets it to None, and `_random` rebuilds it at its next
    pick: a change to `live`, a pending list that fills (`do_broadcast`) and
    one that empties (a deliver).  `run` builds its crash timetable once:
    each step with a crash to the processes crashing then, in process
    order.  `quiesce` makes a new `Ctx` per call: one kept per process
    would tie the engine and its contexts in a reference cycle, which keeps
    every finished run alive until the garbage collector runs.
    """

    def __init__(self, scenario: ScenarioConfig, factory: AutomatonFactory, oracle: Any = None):
        super().__init__(scenario, factory, oracle if oracle is not None else build_oracle(scenario))
        self.horizon = scenario.effective_horizon
        # the scheduler's generator, seeded at its first draw, since only the
        # random policy draws; a plain attribute, because on CPython 3.11 a
        # cached_property's write to __dict__ slows every later attribute load
        self.rng: random.Random | None = None
        self.events: list[dict] = []
        self.pending: dict[int, list[tuple[int, Payload, int | None, int]]] = {
            p: [] for p in self.cfg.processes
        }
        self.live: list[int] = list(self.cfg.processes)
        self.choices: list[tuple] | None = None
        self._last_oracle: dict[int, Any] = {}
        self._last_output: dict[int, Any] = {}
        self._seq = 0
        self._rr = 0

    # -- hooks used by Ctx ---------------------------------------------------

    def oracle_read(self, p: int) -> Any:
        value = self.oracle.read(p, self.t, self.crashed)
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
            pending = self.pending[q]
            if not pending:
                self.choices = None
            pending.append((p, payload, round_tag, self._seq))

    def do_decide(self, p: int, value: Any, r: Any) -> None:
        self.events.append({"step": self.t, "ev": "decide", "proc": p, "value": value, "r": r})

    def do_halt(self, p: int) -> None:
        self.halted = self.halted | {p}
        self.live = [q for q in self.live if q != p]
        self.choices = None
        self.events.append({"step": self.t, "ev": "halt", "proc": p})

    def do_round(self, p: int, r: int, snapshot: dict) -> None:
        self.inboxes[p].advance(r)
        self.events.append({"step": self.t, "ev": "round", "proc": p, "r": r, **snapshot})

    def do_output(self, p: int, value: Any) -> None:
        if self._last_output.get(p, self) == value:
            return
        self._last_output[p] = value
        self.events.append({"step": self.t, "ev": "output", "proc": p, "value": cell_to_json(value)})

    # -- actions ---------------------------------------------------------------

    def apply(self, action: tuple) -> None:
        """Run one action: ("wake", p) or ("poll", p) polls p to its next
        blocking wait, ("crash", p) crashes p and drops what is pending to
        it, and ("deliver", p, i) delivers `pending[p][i]`."""
        kind, p = action[0], action[1]
        if kind == "deliver":
            pending = self.pending[p]
            sender, payload, round_tag, _ = pending.pop(action[2])
            if not pending:
                self.choices = None
            self.inboxes[p].deliver(sender, payload, round_tag)
            self.events.append({"step": self.t, "ev": "deliver", "proc": p, "from": sender, "payload": payload})
        elif kind == "crash":
            self.crashed = self.crashed | {p}
            self.live = [q for q in self.live if q != p]
            self.choices = None
            self.pending[p].clear()
            self.events.append({"step": self.t, "ev": "crash", "proc": p})
        else:
            self.quiesce(p)

    def _settled(self) -> bool:
        # the run is complete when every live process decided and nothing moves;
        # an undecided one ends the test before any pending list or probe is read
        live, pending = self.live, self.pending
        return (self.all_decided(live) and not any(pending[p] for p in live)
                and not any(self.can_progress(p) for p in live))

    def run(self) -> Trace:
        pick = POLICIES[self.scenario.policy]
        crashes: dict[int, list[int]] = {}  # step -> the processes crashing then, in process order
        for p, s in self.scenario.pattern.crash_steps:
            crashes.setdefault(s, []).append(p)
        while self.t < self.horizon:
            for p in crashes.get(self.t, ()):
                self.apply(("crash", p))
            if self._settled():
                break
            for action in pick(self):
                self.apply(action)
            self.t += 1
        return self._finish()

    def _finish(self) -> Trace:
        """The trace so far; a finished run first delivers what is in flight."""
        truncated = not self._settled()
        if not truncated:
            for p in self.cfg.processes:
                while self.pending[p]:
                    self.apply(("deliver", p, 0))
        pending = sum(map(len, self.pending.values()))
        return Trace(scenario=self.scenario, events=self.events, truncated=truncated, pending=pending)


# --- scheduling policies: each picks the actions of one scheduler step ------


def _fifo(sim: Simulation) -> list[tuple]:
    # round robin over the live unhalted processes: deliver the oldest
    # message pending to the next one, then poll it
    p = min(sim.live, key=lambda p: ((p - sim._rr - 1) % sim.cfg.n, p))
    sim._rr = p
    return [("deliver", p, 0), ("poll", p)] if sim.pending[p] else [("poll", p)]


def _random(sim: Simulation) -> list[tuple]:
    # delivery and process steps are independent choices, so a wait can
    # fire with more than its threshold already in the inbox
    choices = sim.choices
    if choices is None:
        choices = sim.choices = []
        for p in sim.live:
            if sim.pending[p]:
                choices.append(("deliver", p))
            choices.append(("poll", p))
    rng = sim.rng
    if rng is None:
        rng = sim.rng = random.Random(f"{sim.scenario.seed}/sched")
    # `rng.choice(choices)`, then `rng.randrange(len(pending))` for a deliver,
    # drawn inline: on CPython 3.10-3.13 both call `_randbelow`, which draws
    # `getrandbits(n.bit_length())` until the value is below n, so each pick
    # and the generator's state after it are the same; the loops stay inline,
    # since a helper would cost the call frames they save
    getrandbits = rng.getrandbits
    n = len(choices)
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    action = choices[r]
    if action[0] == "deliver":
        n = len(sim.pending[action[1]])
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        action += (r,)
    return [action]


def _crash_adjacent(sim: Simulation) -> list[tuple]:
    # post-mortem messages outrace everything else
    best: tuple[int, int, int] | None = None
    for p in sim.live:
        for idx, (sender, _, _, seq) in enumerate(sim.pending[p]):
            if sender in sim.crashed and (best is None or seq < best[0]):
                best = (seq, p, idx)
    if best is None:
        return _fifo(sim)
    _, p, idx = best
    return [("deliver", p, idx), ("poll", p)]


POLICIES = {"fifo": _fifo, "random": _random, "crash-adjacent": _crash_adjacent}  # name -> picker


def run(scenario: ScenarioConfig, factory: AutomatonFactory) -> Trace:
    return Simulation(scenario, factory).run()


_ARITY = {"wake": 2, "poll": 2, "crash": 2, "deliver": 5}  # the length of each explore action


def _replayed(sim: Simulation, action: Any) -> tuple:
    """An explore action as `Simulation.apply` takes it: a deliver names the
    first pending message that matches it.  Anything else is a
    ScenarioError."""
    kind = action[0] if isinstance(action, (tuple, list)) and action else None
    if (not isinstance(kind, str) or _ARITY.get(kind) != len(action)
            or kind == "deliver" and not isinstance(action[3], (tuple, list))):
        raise ScenarioError(f"malformed schedule action {action!r}")
    p = action[1]
    if type(p) is not int or p not in sim.cfg.processes:
        raise ScenarioError(f"schedule action {list(action)} names no process in 1..{sim.cfg.n}")
    if kind == "crash" and (p in sim.crashed or len(sim.crashed) >= sim.cfg.f):
        what = f"process {p} twice" if p in sim.crashed else f"more than f={sim.cfg.f} processes"
        raise ScenarioError(f"schedule action {list(action)} crashes {what}")
    if kind != "deliver":
        return (kind, p)
    _, _, sender, payload, round_tag = action
    action = (kind, p, sender, tuple(payload), round_tag)
    for i, (s, pl, rt, _) in enumerate(sim.pending[p]):
        # an anonymous receiver cannot tell senders apart, so any sender matches
        if pl == action[3] and rt == round_tag and (not sim.scenario.identified or s == sender):
            return (kind, p, i)
    raise ScenarioError(f"schedule action {list(action)} matches no pending message")


def run_schedule(scenario: ScenarioConfig, factory: AutomatonFactory, schedule: Iterable[tuple]) -> Trace:
    """Re-execute an explicit explore schedule, producing a full trace.

    Actions are ("wake", p), ("poll", p), ("crash", p) or ("deliver", p,
    sender, payload, round_tag) exactly as explore() reports them; the
    oracle is the same truthful live oracle exploration uses.  A malformed
    action, one naming no process in 1..n, one delivering no pending
    message, or a crash of a crashed process or beyond f, is a ScenarioError.
    The trace's scenario maps each crashed process to the step of its crash
    action, and its horizon is raised to the schedule's length if the
    schedule does not fit, so `anonsim check` reads the trace as it reads a
    run's.
    """
    sim = Simulation(scenario, factory, oracle=LiveOracle(scenario.oracle_kind, scenario.cfg.n))
    for action in schedule:
        sim.apply(_replayed(sim, action))
        sim.t += 1
    trace = sim._finish()
    horizon = scenario.horizon if sim.t <= scenario.effective_horizon else sim.t
    trace.scenario = replace(scenario, pattern=FailurePattern.of(scenario.cfg.n, trace.crashes), horizon=horizon)
    return trace


# --- exhaustive schedule exploration -----------------------------------------


class NullMonitor:
    """The monitor protocol, and the monitor that checks nothing.

    `explore` gives each explored state its own monitor and calls its hooks
    as the events of the action that makes the state happen, before the
    state is built: a wake's or a poll's on a scratch copy of the parent,
    and a crash's on a view of the parent whose crashed set holds the crash.
    The monitor they leave names the child's monitor slot, so its key is
    part of the key that decides whether the child is built at all:

    * `on_send(state, p, payload)` when p broadcasts, before any copy is
      delivered;
    * `on_decide(state, p, value, r)` when p decides;
    * `on_round(state, p, r)` when p switches to round r;
    * `on_output(state, p, value)` when p emits a detector output;
    * `on_crash(state, p)` when a crash action strikes p.

    A state whose `violation()` is not None is not expanded: its verdict is
    reported as an invariant violation.  At a terminal state (every live
    process halted or decided, no enabled action) `terminal_checks` lists
    its failures, each a (detail, witness) pair whose witness names what in
    the state shows it, and `terminal_profile` names its outcome.

    `verify.check_trace` runs the same hooks over a trace's events, on a
    view whose `automata[q]` holds only q's `r`, `v` and `lock` from its
    latest round event, `decided` and `decide_round` from its latest
    decision and its latest `output`; `crashed` and `halted` hold the crash
    and halt events so far, and `at` the replayed event's index (None on an
    explored state).  So a hook reads nothing else of an automaton.

    A hook may read the state's crashed and halted sets, p's automaton and
    the automata of p's peers, and nothing else: never the inboxes or the
    pending messages.  The hooks of a wake or a poll see p's automaton as it
    is when each effect fires.  `peer_fields` declares what they read of a
    peer: the default, None, allows any automaton, whole; a tuple of field
    names allows those fields of each uncrashed peer, and no crashed peer's
    automaton.  A field a peer's automaton lacks is one no hook reads of it.
    `explore` relies on this: it memoizes a wake's or a poll's outcome, the
    monitor after it included, under p's local state, the halted mask, the
    monitor's id and what the declaration allows (every automaton id, or
    the declared fields of each uncrashed peer), and installs it, running
    no hook, in any later state where those agree.  A hook that reads more
    than its monitor declares gets outcomes whose hooks ran on other peers.

    A delivery calls no hook.  `explore` relies on that too: it derives a
    delivery child's key from its parent's key changing only the receiver's
    inbox and pending slots, and a delivery child it builds shares its
    parent's monitor.  A future delivery hook must therefore have
    deliveries keyed like polls, with a monitor of their own.

    `key()` joins the state's identity, so it must fold in every field that
    a later verdict or hook can depend on; states with equal keys merge, and
    monitors with equal keys may be shared across states.  What a monitor
    keeps must therefore be a function of the automata on every run of a
    correct protocol, or it splits states that the protocol does not.  A
    wake or a poll that runs, and a crash if the monitor has a crash hook,
    gets `clone()`, a shallow copy of its parent's monitor, so a hook must
    replace a container field with a new one, never change it in place.
    A subclass writes the hooks it checks and inherits the rest; setting
    `flag` makes `violation()` report it.  `verify.monitor_for` runs an
    algorithm's monitors as one flat monitor, one object that holds all
    their fields (so its `clone` is this one dict copy) and runs their hooks
    in order.  So a monitor names its fields apart from the other monitors
    of its algorithm, and sets `flag` only while it is None.
    """

    flag: str | None = None
    peer_fields: tuple[str, ...] | None = None  # what the hooks read of a peer; None: any automaton, whole

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

    def terminal_checks(self, state: "_XState") -> list[tuple[str, list]]:
        return []

    def terminal_profile(self, state: "_XState") -> tuple:
        return (tuple(sorted(state.crashed)),)


class _XState:
    """An explored state: `slots`, its key as `_XEngine` keeps it current,
    and the automata, inboxes, pending messages and monitor the slots name.
    The crashed, halted and woken sets live only in the slots; `crashed`
    and `halted` look their masks up.  A built state's containers are
    never changed: children share them until an action replaces an item,
    and then get a copy (`_XEngine.build`)."""

    __slots__ = ("automata", "inboxes", "pending", "monitor", "slots")
    at = None  # a replayed event's index, for monitor hooks: an explored state has none

    def __init__(self, automata, inboxes, pending, monitor, slots):
        self.automata = automata
        self.inboxes = inboxes
        self.pending = pending  # list of (receiver, sender, payload, round_tag, message id)
        self.monitor = monitor
        self.slots = slots

    @property
    def crashed(self) -> frozenset[int]:
        return _PROCS[self.slots[_CRASHED]]

    @property
    def halted(self) -> frozenset[int]:
        return _PROCS[self.slots[_HALTED]]

    def clone(self, slots: array) -> "_XState":
        # copy-on-write: every container is shared; _XEngine.build copies
        # those its action replaces an item of
        return _XState(self.automata, self.inboxes, self.pending, self.monitor, slots)

    def key(self) -> bytes:
        """The state's identity, its slots packed 2 bytes each (4 in a
        search too large for that): per process p, at slots 3p-3, 3p-2 and
        3p-1, the ids of its automaton, of its inbox and of the multiset of
        messages pending to it (the sorted tuple of their message ids), then
        the crashed, halted and woken sets as bit masks and the id of the
        monitor's key.  Two states of one explore call share a key exactly
        when their components are equal."""
        return self.slots.tobytes()


_BIT = (1).__lshift__  # p -> the bit of process p; a set of processes is the sum of its bits
# the global slots of a key, counted from its end
_CRASHED, _HALTED, _WOKEN, _MONITOR = range(-4, 0)
# 2-byte slots hold values below 1 << 16: the masks of up to 15 processes,
# and the ids of a table of this capacity
_NARROW_IDS = 1 << 16
_MAX_EXPLORE_N = array("I").itemsize * 8 - 1  # the most processes a 4-byte mask holds, bit p for p


class _Procs(dict):
    """Each bit mask of processes to the frozenset of them."""

    def __missing__(self, mask: int) -> frozenset[int]:
        procs = self[mask] = frozenset(p for p in range(mask.bit_length()) if mask >> p & 1)
        return procs


_PROCS = _Procs()


class _XEngine(_Engine):
    """Explore's engine: the shared rules applied to explored states.  The
    poll loop and the guard probe run on the state that `load` last pointed
    the engine at: a probe on an explored state, which it only reads, and a
    poll on the scratch copy that `polled` makes.  `do_broadcast` and
    `do_halt` only record, in `sent` and in the scratch's halted mask that
    hooks and `quiesce` read; they write no child's slot or pending list.

    A wake or a poll runs p from its wait to its next blocking one; it
    runs once per engine for each pair of p's local state and `reads`.  A
    probe's verdict and a poll's entry are memoized under p's local state:
    (p, the id of its automaton's key, the id of its inbox, the crashed
    mask), read from the state's slots.  The entry holds p's final
    automaton and inbox, which later polls of that local state share, with
    their ids, computed once when the entry is made; and its outcomes,
    which memoize a poll's whole effect under what its sends and hooks read
    beyond the local state (`reads`): the pending entries it appends,
    whether p halts, and the monitor after it, one object per monitor id.
    A wake's outcome is a poll's; its child also sets p's woken bit.  Sends
    skip crashed and halted receivers, hooks read only the crashed and
    halted sets, p's automaton and what the monitor's `peer_fields` allows
    of its peers, and monitors with equal keys are interchangeable, so the
    halted mask, the monitor's id and those peer fields (every automaton
    id, if the monitor declares none) fix the outcome.  A delivery's outcome,
    the inbox it leaves and that inbox's id, is memoized under (the inbox's
    id, the message id).  The id a message moves a pending multiset to is
    memoized under (the id before, the message id), and computed from the
    multiset that the intern table gives back.  The engine alone owns
    component ids: automata and inboxes cache none, and only the initial
    state's are computed outside these memos.

    `delivered`, `crash` and `polled` derive a child's slots from its
    parent's before the child is built, and `build` installs what they
    found.  The scratch copy of a poll and the view of a crash are built
    directly, never through `_XState.clone`, so only built children are
    cloned.  A state's crash budget is the scenario's f less its crashed
    count.

    A narrow engine keeps 2-byte slots, and its intern table raises
    `_IdsOutgrown` before it mints an id they cannot hold; a wide one keeps
    4-byte slots.
    """

    def __init__(self, scenario: ScenarioConfig, factory: AutomatonFactory, monitor: Any,
                 crash_round_limit: int | None, narrow: bool):
        super().__init__(scenario, factory, LiveOracle(scenario.oracle_kind, scenario.cfg.n))
        self.crash_round_limit = crash_round_limit
        # these live as long as this engine: one explore call, whose caps
        # (which keys leave out) are fixed
        self.ids = ids = InternTable(_NARROW_IDS) if narrow else InternTable()
        # local state -> (automaton, its id, inbox, its id, outcomes); outcomes
        # maps what the poll read beyond the local state to (pending entries
        # appended, whether p halts, monitor after, its id)
        self.polls: dict[tuple, tuple] = {}
        self.probes: dict[tuple, bool] = {}  # local state -> would its next poll move
        self.sent: list[tuple] = []  # the pending entries the poll being run sends
        self.monitors: dict[int, Any] = {}  # monitor id -> the monitor that poll outcomes share
        self.computed = self.reused = 0  # wakes and polls run, and taken from an outcome
        # what `reads` keys a poll of p by beyond the ids: p -> (q, q's bit,
        # the getter of the fields the monitor declares) for each peer q whose
        # automaton has one of them, or None if the monitor declares none; a
        # process's automata are all of one class, so that holds for the call
        fields, getters = monitor.peer_fields, {}
        for q, automaton in self.automata.items():
            present = [name for name in fields or () if hasattr(automaton, name)]
            if present:
                getters[q] = attrgetter(*present)
        self.peers = None if fields is None else {
            p: tuple((q, _BIT(q), get) for q, get in getters.items() if q != p) for p in self.cfg.processes
        }
        # p -> its wake, poll and crash actions, which every state shares
        self.moves = {p: (("wake", p), ("poll", p), ("crash", p)) for p in self.cfg.processes}
        # (inbox id, message id) -> (inbox after, its id)
        self.inbox_after: dict[tuple[int, int], tuple[Inbox, int]] = {}
        # (id before, message id) -> id after, of a pending multiset a message joins or leaves
        self.pending_after_send: dict[tuple[int, int], int] = {}
        self.pending_after_delivery: dict[tuple[int, int], int] = {}
        # the initial state's slots, the only ones computed from scratch; no
        # process has crashed, halted or woken
        slots, identified = array("H" if narrow else "I"), scenario.identified
        for p in self.cfg.processes:
            slots.extend((ids[self.automata[p].key()], self.inboxes[p].key(identified, ids), ids[()]))
        slots.extend((0, 0, 0, ids[monitor.key()]))
        self.state = _XState(self.automata, self.inboxes, [], monitor, slots)

    def load(self, state: _XState) -> "_XEngine":
        self.state = state
        self.automata, self.inboxes = state.automata, state.inboxes
        self.crashed, self.halted = state.crashed, state.halted
        return self

    def local_state(self, st: _XState, p: int) -> tuple:
        """What p's next poll reads, as `st`'s slots name it: p, its
        automaton, its inbox and the crashed set, which fixes the oracle's
        reading."""
        slots = st.slots
        return (p, slots[3 * p - 3], slots[3 * p - 2], slots[_CRASHED])

    def reads(self, st: _XState, p: int) -> tuple:
        """What a wake's or a poll's sends and hooks read beyond p's local
        state, as `st` names it: the halted mask, the monitor's id and the
        fields the monitor declares of each uncrashed peer of p, in process
        order; every process's automaton id if it declares none."""
        slots, peers = st.slots, self.peers
        if peers is None:
            return (slots[_HALTED], slots[_MONITOR], slots[:_CRASHED:3].tobytes())
        crashed, automata = slots[_CRASHED], st.automata
        fields = [get(automata[q]) for q, bit, get in peers[p] if not crashed & bit]
        return (slots[_HALTED], slots[_MONITOR], *fields)

    def actions(self, st: _XState) -> list[tuple]:
        """The enabled actions of a state, read from its slots: ("wake",
        p), ("poll", p), ("crash", p), and ("deliver", entry) for each class
        of pending messages a receiver cannot tell apart, `entry` the
        class's first pending entry.  A woken process may poll when its
        guard probe, `can_progress`, says its next poll would move; the
        verdict is memoized under its local state, and only a miss loads
        `st` into the engine."""
        slots = st.slots
        crashed, woken = slots[_CRASHED], slots[_WOKEN]
        budget = self.cfg.f - crashed.bit_count()
        gone = crashed | slots[_HALTED]
        acts: list[tuple] = []
        for p, (wake, poll, crash) in self.moves.items():
            bit = _BIT(p)
            if gone & bit:
                continue
            if not woken & bit:
                acts.append(wake)
            else:
                local = (p, slots[3 * p - 3], slots[3 * p - 2], crashed)  # as `local_state` reads it
                moves = self.probes.get(local)
                if moves is None:
                    moves = self.probes[local] = self.load(st).can_progress(p)
                if moves:
                    acts.append(poll)
            if budget > 0 and (
                self.crash_round_limit is None
                or getattr(st.automata[p], "r", 0) <= self.crash_round_limit
            ):
                acts.append(crash)
        seen: set[tuple] = set()
        for entry in st.pending:
            cls = entry[0], entry[4]
            if cls not in seen:
                seen.add(cls)
                acts.append(("deliver", entry))
        return acts

    def delivered(self, st: _XState, entry: tuple) -> tuple[array, Inbox]:
        """The slots of the child that delivering `entry`, pending to p,
        makes of `st`, derived from `st`'s slots without building the child,
        and the inbox it leaves p with.  A delivery changes only p's inbox
        and the multiset pending to p, and calls no monitor hook, so only
        those two slots change."""
        p, message = entry[0], entry[4]
        before = st.slots[3 * p - 2]
        after = self.inbox_after.get((before, message))
        if after is None:
            inbox = st.inboxes[p].clone()
            inbox.deliver(*entry[1:4])
            after = self.inbox_after[before, message] = (inbox, inbox.key(self.scenario.identified, self.ids))
        slots = st.slots[:]
        slots[3 * p - 2] = after[1]
        self._repend(slots, p, message, sent=False)
        return slots, after[0]

    def crash(self, st: _XState, p: int) -> tuple[array, Any]:
        """The slots of the child that crashing p makes of `st`, derived
        from `st`'s slots without building the child, and the monitor it
        leaves: a crash hook runs on a clone of `st`'s monitor, against a
        view of `st` whose slots already hold p's crash."""
        slots = st.slots[:]
        slots[_CRASHED] |= _BIT(p)
        slots[3 * p - 1] = self.ids[()]
        monitor = st.monitor
        if type(monitor).on_crash is not NullMonitor.ignore:
            monitor = monitor.clone()
            monitor.on_crash(_XState(st.automata, st.inboxes, st.pending, monitor, slots), p)
            slots[_MONITOR] = self.ids[monitor.key()]
        return slots, monitor

    def polled(self, st: _XState, action: tuple) -> tuple[array, tuple]:
        """The slots of the child that `action`, a wake or a poll of p,
        makes of `st`, derived from `st`'s slots without building the child,
        and the poll's entry and outcome.  An outcome not memoized yet is
        made first, by one run on a scratch copy of `st` with private copies
        of p's automaton and inbox, of `st`'s monitor and of its slots; the
        monitor it leaves becomes the one of its id, and each hook sees p's
        automaton as it is when the effect fires."""
        kind, p = action
        slots = st.slots
        local, reads = self.local_state(st, p), self.reads(st, p)
        done = self.polls.get(local)
        outcome = done and done[4].get(reads)
        if outcome is None:
            self.computed += 1
            automata, inboxes = dict(st.automata), dict(st.inboxes)
            automaton, inbox = automata[p], inboxes[p] = automata[p].copy(), inboxes[p].clone()
            scratch = _XState(automata, inboxes, st.pending, st.monitor.clone(), slots[:])
            self.sent = []
            self.load(scratch).quiesce(p)
            if done is None:  # later polls of this local state share what this one left
                done = self.polls[local] = (automaton, self.ids[automaton.key()],
                                            inbox, inbox.key(self.scenario.identified, self.ids), {})
            monitor_id = self.ids[scratch.monitor.key()]
            outcome = done[4][reads] = (tuple(self.sent), bool(scratch.slots[_HALTED] & _BIT(p)),
                                        self.monitors.setdefault(monitor_id, scratch.monitor), monitor_id)
        else:
            self.reused += 1
        child = slots[:]
        if kind == "wake":
            child[_WOKEN] |= _BIT(p)
        child[3 * p - 3], child[3 * p - 2] = done[1], done[3]
        for entry in outcome[0]:
            self._repend(child, entry[0], entry[4], sent=True)
        if outcome[1]:
            child[_HALTED] |= _BIT(p)
            child[3 * p - 1] = self.ids[()]
        child[_MONITOR] = outcome[3]
        return child, (done, outcome)

    def build(self, st: _XState, action: tuple, slots: array, found: Any) -> _XState:
        """The child that `action` makes of `st`, with the slots that
        `delivered`, `crash` or `polled` derived and what it found: a
        delivery installs the memoized inbox and keeps `st`'s monitor, a
        crash installs its monitor and drops what is pending to p, and a
        wake or a poll installs p's automaton and inbox, the pending entries
        and the monitor of its outcome.  No poll runs and no hook is
        called.  The child shares `st`'s containers and gets a copy of only
        those it replaces an item of: a delivery copies the inbox map and
        the pending list, a crash the pending list, and a wake or a poll
        both maps, and the pending list only if it sends or halts."""
        child = st.clone(slots)
        if action[0] == "deliver":
            entry = action[1]
            child.inboxes = dict(st.inboxes)
            child.inboxes[entry[0]] = found
            child.pending = list(st.pending)
            child.pending.remove(entry)
            return child
        p = action[1]
        if action[0] == "crash":
            child.monitor = found
            child.pending = [m for m in st.pending if m[0] != p]
            return child
        done, (sent, halts, monitor, _) = found
        child.automata, child.inboxes = dict(st.automata), dict(st.inboxes)
        child.automata[p], child.inboxes[p], child.monitor = done[0], done[2], monitor
        if halts:
            child.pending = [m for m in st.pending if m[0] != p]
            child.pending += sent
        elif sent:
            child.pending = st.pending + list(sent)
        return child

    def _repend(self, slots: array, q: int, message: int, sent: bool) -> None:
        """Rewrite q's pending slot in `slots` for `message` joining the
        multiset it names (`sent`) or leaving it."""
        memo = self.pending_after_send if sent else self.pending_after_delivery
        before = slots[3 * q - 1]
        after = memo.get((before, message))
        if after is None:
            bag = list(self.ids.components[before])
            if sent:
                bag.append(message)
            else:
                bag.remove(message)
            after = memo[before, message] = self.ids[tuple(sorted(bag))]
        slots[3 * q - 1] = after

    def do_broadcast(self, p: int, payload: Payload, round_tag: int | None) -> None:
        st = self.state
        st.inboxes[p].deliver(p, payload, round_tag)
        st.monitor.on_send(st, p, payload)
        # a message's id holds what its receivers can tell apart
        message = self.ids[(p, payload, round_tag) if self.scenario.identified else (payload, round_tag)]
        gone = st.slots[_CRASHED] | st.slots[_HALTED]
        for q in self.cfg.processes:
            if q != p and not gone & _BIT(q):
                self.sent.append((q, p, payload, round_tag, message))

    def do_decide(self, p: int, value: Any, r: Any) -> None:
        self.state.monitor.on_decide(self.state, p, value, r)

    def do_halt(self, p: int) -> None:
        st = self.state
        st.slots[_HALTED] |= _BIT(p)
        self.halted = st.halted

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
    children: int  # child states reached, new or not: one per enabled action of every expanded state
    peak_frontier: int  # most states discovered but not yet expanded at once
    depth: int  # the BFS depth reached: the most actions between the initial state and a state
    # wakes and polls run: the first of each pair of local state and what its
    # sends and hooks read beyond it, the monitor's declared peer fields included
    computed: int
    reused: int  # wakes and polls whose whole outcome was memoized: derived without running

    @property
    def ok(self) -> bool:
        return self.violation_count == 0 and not self.partial

    @property
    def skipped(self) -> int:  # children whose derived key was visited: never built
        return self.children - (self.states - 1)


def explore(
    scenario: ScenarioConfig,
    factory: AutomatonFactory,
    monitor: Any = None,
    max_states: int = 1_500_000,
    crash_round_limit: int | None = None,
) -> ExploreResult:
    """Enumerate every schedule of a scenario, up to `max_states` states.

    Branching choices: which process starts, which pending message class is
    delivered to whom, when a process takes a step (runs from its blocking
    wait to the next one), and where up to f crashes strike: the
    scenario's f is the crash budget.  Message delivery and process steps are
    independent choices, so a wait can be evaluated with any superset of
    the messages that first satisfy it.  States reached by different
    interleavings merge: the search is over the reachable state graph,
    with the monitor's accumulated verdicts folded into the state identity.
    The oracle is the truthful live oracle (its reading is a function of
    the crashes chosen so far).

    `crash_round_limit` restricts crash placements to processes whose round
    counter is still at or below the limit.  Round-capped transformations
    need it: their completeness clauses are eventual, so only crashes that
    leave enough rounds before the cap can be witnessed by the final state.

    The state budget bounds the search: reaching it ends the search with
    `partial` set.  A set of processes is one key slot's bit mask, so n is
    at most 31; a larger n is a `ScenarioError`.
    """
    if max_states < 1:
        raise ScenarioError(f"the state budget must be at least 1, not {max_states}")
    if scenario.cfg.n > _MAX_EXPLORE_N:
        raise ScenarioError(f"explore takes at most {_MAX_EXPLORE_N} processes, not n={scenario.cfg.n}")
    if scenario.pattern.crash_steps:
        raise ScenarioError(
            "exploration chooses crash placements itself; use an empty crash map"
        )
    monitor = monitor if monitor is not None else NullMonitor()
    # 2-byte slots first, where the masks fit; a search whose ids outgrow
    # them restarts once with 4-byte slots and, being deterministic, finds
    # what the narrow one would have
    if scenario.cfg.n < 16:
        try:
            return _search(_XEngine(scenario, factory, monitor, crash_round_limit, narrow=True), max_states)
        except _IdsOutgrown:
            pass
    return _search(_XEngine(scenario, factory, monitor, crash_round_limit, narrow=False), max_states)


def _search(engine: _XEngine, max_states: int) -> ExploreResult:
    """`explore`'s breadth-first search, from `engine`'s initial state."""
    init = engine.state
    # the visited keys, and per state in discovery order its parent's index
    # in these arrays and the index in `moves` of the action between
    visited = {init.key()}
    parent, via = array("I", [0]), array("I", [0])
    moves = [move for shared in engine.moves.values() for move in shared]
    # an action -> its index in `moves`; a deliver is keyed with its repr too,
    # which keeps apart payloads that compare equal but differ in type: 1, True
    number = {move: i for i, move in enumerate(moves)}
    # reaching the budget ends the search, the initial state's included
    partial = len(visited) >= max_states
    # first in, first out: a state's index is the count of states popped before it
    queue: deque[_XState] = deque() if partial else deque([init])
    index = -1

    def schedule_of(index: int) -> list[tuple]:
        chain: list[tuple] = []
        while index:
            chain.append(moves[via[index]])
            index = parent[index]
        chain.reverse()
        return chain

    terminals = 0
    violations: list[Violation] = []
    violation_count = 0
    profiles: Counter = Counter()
    children = 0
    peak_frontier = 1

    while queue:
        state = queue.popleft()
        index += 1
        broken = state.monitor.violation()
        acts = engine.actions(state) if broken is None else []
        if acts:
            for action in acts:
                children += 1
                kind = action[0]
                if kind == "deliver":
                    slots, found = engine.delivered(state, action[1])
                elif kind == "crash":
                    slots, found = engine.crash(state, action[1])
                else:
                    slots, found = engine.polled(state, action)
                if slots.tobytes() in visited:
                    continue
                child = engine.build(state, action, slots, found)
                visited.add(child.key())
                if kind != "deliver":
                    move = number[action]
                else:  # numbered when it first reaches a new state
                    action = ("deliver", *action[1][:4])
                    move = number.setdefault((repr(action), action), len(moves))
                    if move == len(moves):
                        moves.append(action)
                queue.append(child)
                parent.append(index)
                via.append(move)
                peak_frontier = max(peak_frontier, len(queue))
                if len(visited) >= max_states:
                    partial = True
                    queue.clear()
                    break
            continue
        if broken is not None:
            found = [("invariant", broken)]
        elif engine.load(state).all_decided(set(engine.automata) - engine.crashed - engine.halted):
            terminals += 1
            profiles[state.monitor.terminal_profile(state)] += 1
            found = [("terminal", detail) for detail, _ in state.monitor.terminal_checks(state)]
        else:
            found = [("stuck", "no enabled action but an undecided live process never halted")]
        violation_count += len(found)
        for check, detail in found[: KEEP_WITNESSES - len(violations)]:
            violations.append(Violation(check, detail, schedule_of(index)))

    return ExploreResult(
        states=len(visited),
        terminals=terminals,
        violations=violations,
        violation_count=violation_count,
        partial=partial,
        terminal_profiles=profiles,
        children=children,
        peak_frontier=peak_frontier,
        # breadth first discovers states in order of depth: the last is the deepest
        depth=len(schedule_of(len(parent) - 1)),
        computed=engine.computed,
        reused=engine.reused,
    )
