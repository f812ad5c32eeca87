"""Core objects of the anonymous message-passing model.

Processes are named by integer index 1..n.  Time is the simulator's global
step counter.  A failure pattern stores crash steps (absent = never crashes);
the time-indexed crashed set is derived from it.  Detector histories are
finite tables extended by a constant tail beyond their horizon, which is how
"eventually ..." properties become checkable on finite data.  Permutations of
the process indices drive the anonymity predicate: a detector is anonymous
when relabelling both the history rows and the failure pattern preserves
validity.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from typing import Any, Iterable, Iterator


class _Absent:
    """Marker for an undefined receive-log slot (distinct from an error)."""

    def __repr__(self) -> str:
        return "ABSENT"


ABSENT = _Absent()


@dataclass(frozen=True)
class SystemConfig:
    """System size n and crash bound f; at least one process stays correct."""

    n: int
    f: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need at least one process, got n={self.n}")
        if not 0 <= self.f < self.n:
            raise ValueError(f"crash bound must satisfy 0 <= f < n, got f={self.f}, n={self.n}")

    @property
    def processes(self) -> range:
        return range(1, self.n + 1)


@dataclass(frozen=True)
class FailurePattern:
    """Crash steps per process; F(t) = processes with crash step <= t."""

    n: int
    crash_steps: tuple[tuple[int, int], ...]  # sorted (process, step) pairs

    @classmethod
    def of(cls, n: int, crashes: dict[int, int] | None = None) -> "FailurePattern":
        crashes = crashes or {}
        for p, t in crashes.items():
            if not 1 <= p <= n:
                raise ValueError(f"crash of unknown process {p} (n={n})")
            if t < 0:
                raise ValueError(f"negative crash step {t} for process {p}")
        if len(crashes) >= n:
            raise ValueError("at least one process must stay correct")
        return cls(n, tuple(sorted(crashes.items())))

    def at(self, t: int) -> frozenset[int]:
        """The crashed set F(t): monotone in t by construction."""
        return frozenset(p for p, s in self.crash_steps if s <= t)

    def crash_step(self, p: int) -> int | None:
        for q, s in self.crash_steps:
            if q == p:
                return s
        return None

    @property
    def crashed(self) -> frozenset[int]:
        return frozenset(p for p, _ in self.crash_steps)

    @property
    def correct(self) -> frozenset[int]:
        return frozenset(range(1, self.n + 1)) - self.crashed

    @property
    def last_crash(self) -> int:
        return max((s for _, s in self.crash_steps), default=0)


def crashed_set(pattern: FailurePattern) -> frozenset[int]:
    """Union of F(t) over all t: exactly the processes with a crash step."""
    return pattern.crashed


def correct_set(pattern: FailurePattern, cfg: SystemConfig) -> frozenset[int]:
    """P - crashed(F); rejects patterns outside cfg's crash budget."""
    if pattern.n != cfg.n:
        raise ValueError(f"pattern is over n={pattern.n}, config has n={cfg.n}")
    if len(pattern.crashed) > cfg.f:
        raise ValueError(f"pattern crashes {len(pattern.crashed)} processes, bound is f={cfg.f}")
    correct = pattern.correct
    if not correct:
        raise ValueError("pattern crashes every process")
    return correct


@dataclass(frozen=True)
class Environment:
    """All failure patterns with at most f crashes for a given system size."""

    cfg: SystemConfig

    def contains(self, pattern: FailurePattern) -> bool:
        return pattern.n == self.cfg.n and len(pattern.crashed) <= self.cfg.f

    def sample(self, rng: random.Random, max_step: int) -> FailurePattern:
        count = rng.randint(0, self.cfg.f)
        victims = rng.sample(range(1, self.cfg.n + 1), count)
        return FailurePattern.of(self.cfg.n, {p: rng.randint(0, max_step) for p in victims})

    def enumerate_patterns(self, steps: Iterable[int]) -> Iterator[FailurePattern]:
        """All patterns whose crash steps are drawn from `steps` (small n only)."""
        steps = sorted(steps)
        procs = list(self.cfg.processes)
        for count in range(self.cfg.f + 1):
            for victims in itertools.combinations(procs, count):
                for times in itertools.product(steps, repeat=count):
                    yield FailurePattern.of(self.cfg.n, dict(zip(victims, times)))


@dataclass(frozen=True)
class Permutation:
    """Bijection on process indices 1..n, stored as the image tuple."""

    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.mapping)
        if sorted(self.mapping) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.mapping}")

    @property
    def n(self) -> int:
        return len(self.mapping)

    def __call__(self, p: int) -> int:
        return self.mapping[p - 1]

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def swap(cls, n: int, a: int, b: int) -> "Permutation":
        image = list(range(1, n + 1))
        image[a - 1], image[b - 1] = b, a
        return cls(tuple(image))

    @classmethod
    def cycle(cls, n: int, cyc: tuple[int, ...]) -> "Permutation":
        """Maps cyc[i] to cyc[i+1] (wrapping); everything else fixed."""
        image = list(range(1, n + 1))
        for i, p in enumerate(cyc):
            image[p - 1] = cyc[(i + 1) % len(cyc)]
        return cls(tuple(image))

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self.compose(other))(p) = self(other(p))."""
        return Permutation(tuple(self(other(p)) for p in range(1, self.n + 1)))

    def inverse(self) -> "Permutation":
        image = [0] * self.n
        for p in range(1, self.n + 1):
            image[self(p) - 1] = p
        return Permutation(tuple(image))


def all_permutations(n: int) -> Iterator[Permutation]:
    for image in itertools.permutations(range(1, n + 1)):
        yield Permutation(image)


def random_permutation(n: int, rng: random.Random) -> Permutation:
    image = list(range(1, n + 1))
    rng.shuffle(image)
    return Permutation(tuple(image))


@dataclass(frozen=True)
class DetectorHistory:
    """Per-process, per-step detector outputs with a constant tail.

    rows[p-1][t] is the module output of process p at step t for
    t <= horizon; beyond the horizon every row extends with its last value.
    `convergence` is sampler metadata (the step from which the eventual
    clauses hold); validators recompute it and never trust it.
    """

    kind: str
    n: int
    horizon: int
    rows: tuple[tuple[Any, ...], ...]
    convergence: int | None = None
    emulated_from: tuple | None = None  # (source kind, transformation, seed)

    def __post_init__(self) -> None:
        if len(self.rows) != self.n:
            raise ValueError(f"{len(self.rows)} rows for n={self.n} processes")
        for row in self.rows:
            if len(row) != self.horizon + 1:
                raise ValueError(f"row of length {len(row)} for horizon {self.horizon}")

    def at(self, p: int, t: int) -> Any:
        if t < 0:
            raise ValueError(f"negative time {t}")
        return self.rows[p - 1][min(t, self.horizon)]

    def row(self, p: int) -> tuple[Any, ...]:
        return self.rows[p - 1]


def permute_pattern(pi: Permutation, pattern: FailurePattern) -> FailurePattern:
    """F^pi with F^pi(t) = pi(F(t)), i.e. process pi(p) crashes when p did."""
    if pi.n != pattern.n:
        raise ValueError(f"permutation over {pi.n} processes, pattern over {pattern.n}")
    return FailurePattern.of(pattern.n, {pi(p): s for p, s in pattern.crash_steps})


def permute_history(pi: Permutation, history: DetectorHistory) -> DetectorHistory:
    """H^pi with H^pi(p, t) = H(pi(p), t): rows move, cell values do not."""
    if pi.n != history.n:
        raise ValueError(f"permutation over {pi.n} processes, history over {history.n}")
    rows = tuple(history.rows[pi(p) - 1] for p in range(1, history.n + 1))
    return DetectorHistory(
        kind=history.kind,
        n=history.n,
        horizon=history.horizon,
        rows=rows,
        convergence=history.convergence,
        emulated_from=history.emulated_from,
    )


@dataclass
class ReceiveLog:
    """Ground-truth record of delivered values: (receiver, sender, step) -> value."""

    values: dict[tuple[int, int, int], Any]

    def record(self, receiver: int, sender: int, step: int, value: Any) -> None:
        self.values[(receiver, sender, step)] = value


def anonymous_receive(log: ReceiveLog, pi: Permutation, receiver: int, j: int, t: int) -> Any:
    """The receiver's view through the hidden permutation: R(receiver, pi(j), t).

    Callers inside the anonymous simulator never see j itself; an undefined
    slot yields ABSENT rather than raising.
    """
    return log.values.get((receiver, pi(j), t), ABSENT)


@dataclass(frozen=True)
class AnonymityVerdict:
    anonymous: bool
    violation: Permutation | None
    tested: int


def is_anonymous(
    spec: Any,
    pattern: FailurePattern,
    history: DetectorHistory,
    perms: Iterable[Permutation] | None = None,
) -> AnonymityVerdict:
    """Check closure of spec.validates under simultaneous relabelling.

    A relabelling must move a process's detector output together with its
    crash fate: the history row written at position p came from pi(p), so
    the matching pattern sends the crash of pi(p) to position p as well,
    which is permute_pattern with the inverse permutation.  (Pairing both
    sides with the same direction would move rows and fates oppositely for
    any non-involutive permutation, and under that reading not even an
    output as symmetric as a crash count stays closed.)  Because the check
    quantifies over the whole permutation group, inverting one side does
    not change which detectors count as anonymous.

    Exhaustive over all n! permutations for n <= 4, over 100 permutations
    drawn from a fixed seed above (or over an explicit `perms` iterable).
    Reports the first violating permutation.  The input history must itself
    be valid.
    """
    if not spec.validates(history, pattern):
        raise ValueError("input history does not validate against the spec")
    if perms is None:
        if history.n <= 4:
            perms = all_permutations(history.n)
        else:
            rng = random.Random("0/anonymity")
            perms = (random_permutation(history.n, rng) for _ in range(100))
    tested = 0
    for pi in perms:
        tested += 1
        if not spec.validates(permute_history(pi, history), permute_pattern(pi.inverse(), pattern)):
            return AnonymityVerdict(anonymous=False, violation=pi, tested=tested)
    return AnonymityVerdict(anonymous=True, violation=None, tested=tested)


# --- serialization -----------------------------------------------------------

def pattern_to_json(cfg: SystemConfig, pattern: FailurePattern) -> str:
    doc = {
        "n": cfg.n,
        "f": cfg.f,
        "crash": {str(p): s for p, s in pattern.crash_steps},
    }
    return json.dumps(doc, sort_keys=True)


def _json_object(text: str, what: str) -> dict:
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, not {type(doc).__name__}")
    return doc


def _json_int(value: Any, what: str) -> int:
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, not {value!r}")
    return value


def pattern_from_json(text: str) -> tuple[SystemConfig, FailurePattern]:
    doc = _json_object(text, "pattern")
    cfg = SystemConfig(n=_json_int(doc["n"], "'n'"), f=_json_int(doc["f"], "'f'"))
    crash = doc.get("crash", {})
    if not isinstance(crash, dict):
        raise ValueError(f"'crash' must be a JSON object, not {crash!r}")
    crashes = {int(p): _json_int(s, f"crash step of {p}") for p, s in crash.items()}
    pattern = FailurePattern.of(cfg.n, crashes)
    correct_set(pattern, cfg)  # reject patterns outside the budget
    return cfg, pattern


def _cell_to_json(value: Any) -> Any:
    if isinstance(value, frozenset):
        return sorted(value)
    return value


def _cell_from_json(value: Any) -> Any:
    if isinstance(value, dict) or (
        isinstance(value, list) and any(isinstance(v, (list, dict)) for v in value)
    ):
        raise ValueError(f"history cell is neither a scalar nor a flat list: {value!r}")
    if isinstance(value, list):
        return frozenset(value)
    return value


def _range_name(history: DetectorHistory) -> str:
    cell = history.rows[0][0]
    if isinstance(cell, bool):
        return "flag"
    if isinstance(cell, int):
        return "count"
    if isinstance(cell, frozenset):
        return "pid-set"
    return "value"


def history_to_json(history: DetectorHistory) -> str:
    doc = {
        "kind": history.kind,
        "range": _range_name(history),
        "n": history.n,
        "horizon": history.horizon,
        "out": [[_cell_to_json(v) for v in row] for row in history.rows],
        "convergence": history.convergence,
        "emulated_from": list(history.emulated_from) if history.emulated_from else None,
    }
    return json.dumps(doc, sort_keys=True)


def history_from_json(text: str) -> DetectorHistory:
    doc = _json_object(text, "history")
    out = doc["out"]
    if not isinstance(out, list) or not all(isinstance(row, list) for row in out):
        raise ValueError("'out' must be a list of rows")
    horizon = _json_int(doc["horizon"], "'horizon'")
    if horizon < 0:
        raise ValueError(f"negative horizon {horizon}")
    kind = doc.get("kind", "")
    if not isinstance(kind, str):
        raise ValueError(f"'kind' must be a string, not {kind!r}")
    emulated = doc.get("emulated_from")
    if emulated is not None and not isinstance(emulated, list):
        raise ValueError(f"'emulated_from' must be a list, not {emulated!r}")
    return DetectorHistory(
        kind=kind,
        n=_json_int(doc["n"], "'n'"),
        horizon=horizon,
        rows=tuple(tuple(_cell_from_json(v) for v in row) for row in out),
        convergence=doc.get("convergence"),
        emulated_from=tuple(emulated) if emulated else None,
    )
