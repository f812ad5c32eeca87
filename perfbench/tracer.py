"""Layer tracing for anonsim, applied from outside the package.

`instrument` replaces public entry points of the `detectors`, `model`,
`simulator`, `consensus`, `transforms`, `verify` and `cli` modules with
wrappers that time each call; nothing under `src/` is edited, and leaving
the `Tracer` context restores every original attribute.

Every wrapped call is a span: a label, a start, an end and the span that was
open when it began.  A span's self time is its duration minus the time its
child spans cover, so the self times of all labels partition the traced
wall time.  Coarse boundaries (one call per operation or per phase of one)
keep each span; hot boundaries (oracle-table cells, polls, state keys and
clones, up to millions of calls per job) fold their spans into per-label
totals so memory stays bounded.  `after` hooks count work at a boundary;
their own time is charged to the label `trace.hook`, not to the layer.
"""

from __future__ import annotations

import itertools
import json
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable

HOOK = "trace.hook"


class Tracer:
    """Span and count recorder; a context manager that undoes its patches."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # label -> [calls, total s, self s]
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []  # kept spans: (id, parent id, label, start, end)
        self._ids = itertools.count(1)
        self._stack: list[list] = [[0.0, 0, None]]  # frames: [child s, id, label]
        self._patches: list[tuple[Any, str, Any]] = []

    def current_label(self) -> str | None:
        return self._stack[-1][2]

    def _entry(self, label: str) -> list:
        entry = self.stats.get(label)
        if entry is None:
            entry = self.stats[label] = [0, 0.0, 0.0]
        return entry

    def wrap(
        self,
        fn: Callable,
        label: str | Callable[[tuple], str | None],
        keep: bool = False,
        after: Callable[[tuple, Any], None] | None = None,
    ) -> Callable:
        """`fn` traced as a span.  A callable `label` picks the label from the
        call's arguments; a None label runs the call untraced."""
        stack, clock, ids, spans, entry_of = self._stack, time.perf_counter, self._ids, self.spans, self._entry
        choose = label if callable(label) else None

        def traced(*args, **kwargs):
            name = choose(args) if choose is not None else label
            if name is None:
                return fn(*args, **kwargs)
            parent = stack[-1]
            frame = [0.0, next(ids), name]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                took = end - start
                entry = entry_of(name)
                entry[0] += 1
                entry[1] += took
                entry[2] += took - frame[0]
                parent[0] += took
                if keep:
                    spans.append((frame[1], parent[1], name, start, end))
            if after is not None:
                hook_start = clock()
                after(args, result)
                took = clock() - hook_start
                entry = entry_of(HOOK)
                entry[0] += 1
                entry[1] += took
                entry[2] += took
                parent[0] += took
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner: Any, attr: str, replacement: Any, *aliases: Any) -> None:
        """Set `owner.attr`, and the same name in every alias module that
        imported the original object, to `replacement` until exit."""
        original = owner.__dict__[attr]
        for target in (owner, *aliases):
            if target is owner or target.__dict__.get(attr) is original:
                self._patches.append((target, attr, target.__dict__[attr]))
                setattr(target, attr, replacement)

    def span(self, owner: Any, attr: str, label, *aliases: Any, keep=False, after=None) -> None:
        self.patch(owner, attr, self.wrap(owner.__dict__[attr], label, keep, after), *aliases)

    def count(self, owner: Any, attr: str, after: Callable[[tuple, Any], None]) -> None:
        """Untimed hook for boundaries too cheap to time without distorting them."""
        fn = owner.__dict__[attr]

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(args, result)
            return result

        counted.__wrapped__ = fn
        self.patch(owner, attr, counted)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc: Any) -> None:
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    def self_seconds(self, *labels: str) -> float:
        return sum(self.stats[name][2] for name in labels if name in self.stats)

    def calls(self, *labels: str) -> int:
        return sum(self.stats[name][0] for name in labels if name in self.stats)

    def write(self, directory: Path, stem: str) -> None:
        """Write the kept spans (JSONL) and the per-label totals (JSON)."""
        directory.mkdir(parents=True, exist_ok=True)
        with open(directory / f"{stem}.spans.jsonl", "w") as out:
            for span_id, parent, name, start, end in self.spans:
                out.write(
                    json.dumps({"id": span_id, "parent": parent, "name": name, "start": start, "end": end})
                    + "\n"
                )
        layers = {
            name: {"calls": calls, "total_s": total, "self_s": own}
            for name, (calls, total, own) in sorted(self.stats.items())
        }
        doc = {"layers": layers, "counts": dict(sorted(self.counts.items()))}
        (directory / f"{stem}.layers.json").write_text(json.dumps(doc, indent=2) + "\n")


_MONITORS = ("ConsensusMonitor", "SuspectorMonitor", "SelfTrustTerminalMonitor")
_MONITOR_HOOKS = (
    "clone", "key", "on_send", "on_decide", "on_round", "on_output", "on_crash",
    "violation", "terminal_checks", "terminal_profile",
)


def _resolve(api: Any, path: str) -> Any:
    owner = api
    for name in path.split("."):
        owner = getattr(owner, name, None)
    return owner


def _automata(module: Any, base: type) -> list[type]:
    return [
        obj
        for obj in vars(module).values()
        if isinstance(obj, type)
        and issubclass(obj, base)
        and obj.__module__ == module.__name__
        and "on_poll" in obj.__dict__
    ]


def instrument(tracer: Tracer, api: Any) -> list[str]:
    """Wrap anonsim's layer boundaries; `api` holds the imported modules.

    Returns the boundaries not found, whose layers then read zero: a renamed
    entry point costs its layer's numbers, not the run.
    """
    counts = tracer.counts
    sim = api.simulator
    engines = {
        getattr(sim, "Simulation", None): "sim",
        getattr(sim, "_XEngine", None): "explore",
    }
    cells: dict[int, set] = {}
    keys: set = set()

    def poll_label(prefix: str) -> Callable[[tuple], str]:
        def label(args: tuple) -> str:
            engine = getattr(args[1], "_engine", None)
            kind = engines.get(type(engine))
            if kind is None:  # a guard probe: on a running simulation or an explored state
                host = getattr(engine, "host", None)
                kind = "probe.sim" if engines.get(type(host)) == "sim" else "probe.explore"
            return f"{prefix}.poll.{kind}"

        return label

    def in_explore(label: str) -> Callable[[tuple], str | None]:
        # Automaton.copy also serves the simulator's settle probes; those stay
        # inside simulator.settled
        return lambda args: label if tracer.current_label() == "simulator.explore" else None

    def drawn(args: tuple, history: Any) -> None:
        counts["detectors.cells_drawn"] += history.n * (history.horizon + 1)

    def read(args: tuple, value: Any) -> None:
        runtime, p, t = args[0], args[1], args[2]
        cells.setdefault(id(runtime), set()).add((p, min(t, runtime.history.horizon)))

    def ran(args: tuple, trace: Any) -> None:
        counts["simulator.events"] += len(trace.events)

    def stepped(args: tuple, trace: Any) -> None:
        simulation = args[0]
        counts["simulator.steps"] += simulation.t
        counts["detectors.cells_read"] += len(cells.pop(id(simulation.oracle), ()))

    def serialized(args: tuple, text: str) -> None:
        counts["simulator.jsonl_bytes"] += len(text.encode())

    def explored(args: tuple, result: Any) -> None:
        counts["explore.states"] += len(keys)
        keys.clear()

    def keyed(args: tuple, key: tuple) -> None:
        keys.add(key)

    def terminal(args: tuple, profile: Any) -> None:
        counts["explore.terminals"] += 1

    aliases = ("simulator", "cli", "package")  # modules that import functions by name
    spans = [
        # detectors and model: oracle tables and the failure-pattern lookups
        ("detectors", "sample_history", "detectors.sample", True, drawn),
        ("model.FailurePattern", "at", "model.pattern", False, None),
        ("model.FailurePattern", "crash_step", "model.pattern", False, None),
        # simulator: one seeded run, its settle check and its serialization
        ("simulator", "run", "simulator.run", True, ran),
        ("simulator.Simulation", "_settled", "simulator.settled", False, None),
        ("simulator.Trace", "to_jsonl", "simulator.jsonl", True, serialized),
        # simulator: exhaustive exploration
        ("simulator", "explore", "simulator.explore", True, explored),
        ("simulator._XState", "key", "simulator.explore.key", False, keyed),
        ("simulator._XState", "clone", "simulator.explore.clone.state", False, None),
        ("simulator.Inbox", "clone", in_explore("simulator.explore.clone.inbox"), False, None),
        ("simulator.Automaton", "copy", in_explore("simulator.explore.clone.automaton"), False, None),
        # verify: trace checkers and exploration monitors
        ("verify", "check_consensus", "verify.check", True, None),
        ("verify", "check_lemma_invariants", "verify.check", True, None),
        ("verify", "monitor_for", "verify.monitor_for", False, None),
        *(
            (f"verify.{cls}", hook, "verify.monitor", False, terminal if hook == "terminal_profile" else None)
            for cls in _MONITORS
            for hook in _MONITOR_HOOKS
        ),
        # cli: the entry points `anonsim run` and `anonsim explore` go through
        ("cli", "run_and_check", "cli.run_and_check", True, None),
        ("cli", "explore_crash_limit", "cli.explore_crash_limit", False, None),
    ]
    # consensus and transforms: automaton polls, split by the engine driving them
    for layer in ("consensus", "transforms"):
        for cls in _automata(getattr(api, layer), sim.Automaton):
            spans.append((f"{layer}.{cls.__name__}", "on_poll", poll_label(layer), False, None))
    counters = [
        ("detectors.OracleRuntime", "read", read),
        ("simulator.Simulation", "run", stepped),
    ]

    missing = []
    for path, attr, label, keep, after in spans:
        owner = _resolve(api, path)
        if owner is None or attr not in vars(owner):
            missing.append(f"{path}.{attr}")
            continue
        modules = [getattr(api, name) for name in aliases] if "." not in path else []
        tracer.span(owner, attr, label, *modules, keep=keep, after=after)
    for path, attr, after in counters:
        owner = _resolve(api, path)
        if owner is None or attr not in vars(owner):
            missing.append(f"{path}.{attr}")
            continue
        tracer.count(owner, attr, after)
    return missing


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer, traced_s: float, untraced_s: float, untraced_explore_s: float) -> dict:
    """Per-layer numbers of one traced run: self seconds and counts.

    `traced_s` and `untraced_s` are the bench's wall times for the same
    operations with and without tracing; `untraced_explore_s` is the untraced
    time inside `explore`, the base of states per second.
    """
    own, calls, counts = tracer.self_seconds, tracer.calls, tracer.counts
    metrics: dict[str, tuple[float, str]] = {
        "detectors.sample_s": (own("detectors.sample"), "s"),
        "detectors.cells_drawn": (counts["detectors.cells_drawn"], "count"),
        "detectors.cells_read": (counts["detectors.cells_read"], "count"),
        "detectors.cells_read_frac": (
            _ratio(counts["detectors.cells_read"], counts["detectors.cells_drawn"]), "ratio"
        ),
        "model.pattern_s": (own("model.pattern"), "s"),
        "model.pattern_calls": (calls("model.pattern"), "count"),
        "simulator.run_self_s": (own("simulator.run"), "s"),
        "simulator.steps": (counts["simulator.steps"], "count"),
        "simulator.events": (counts["simulator.events"], "count"),
        "simulator.settled_s": (own("simulator.settled"), "s"),
        "simulator.settled_calls": (calls("simulator.settled"), "count"),
        "simulator.jsonl_s": (own("simulator.jsonl"), "s"),
        "simulator.jsonl_bytes": (counts["simulator.jsonl_bytes"], "count"),
    }
    for layer in ("consensus", "transforms"):
        for engine in ("sim", "explore", "probe"):
            labels = (
                (f"{layer}.poll.probe.sim", f"{layer}.poll.probe.explore")
                if engine == "probe"
                else (f"{layer}.poll.{engine}",)
            )
            metrics[f"{layer}.poll_s.{engine}"] = (own(*labels), "s")
            metrics[f"{layer}.polls.{engine}"] = (calls(*labels), "count")
    probes = ("consensus.poll.probe.explore", "transforms.poll.probe.explore")
    clones = (
        "simulator.explore.clone.state",
        "simulator.explore.clone.inbox",
        "simulator.explore.clone.automaton",
    )
    states = counts["explore.states"]
    children = calls("simulator.explore.clone.state")
    metrics.update(
        {
            "simulator.explore.probe_s": (own(*probes), "s"),
            "simulator.explore.probes": (calls(*probes), "count"),
            "verify.check_s": (own("verify.check"), "s"),
            "verify.monitor_s": (own("verify.monitor"), "s"),
            "simulator.explore.key_s": (own("simulator.explore.key"), "s"),
            "simulator.explore.key_calls": (calls("simulator.explore.key"), "count"),
            "simulator.explore.clone_s": (own(*clones), "s"),
            "simulator.explore.other_s": (own("simulator.explore"), "s"),
            "simulator.explore.states": (states, "count"),
            "simulator.explore.children_built": (children, "count"),
            "simulator.explore.dedup_frac": (_ratio(states, children), "ratio"),
            "simulator.explore.terminals": (counts["explore.terminals"], "count"),
            "simulator.explore.states_per_s": (_ratio(states, untraced_explore_s), "1/s"),
            "cli.self_s": (own("cli.run_and_check"), "s"),
            "trace.hook_s": (own(HOOK), "s"),
            "trace.wall_s": (traced_s, "s"),
            "trace.untraced_s": (untraced_s, "s"),
            "trace.overhead_frac": (_ratio(traced_s, untraced_s) - 1.0, "ratio"),
        }
    )
    return metrics
