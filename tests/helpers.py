"""Shared scenario builders, trace readers and negative controls for the
test suite."""

from collections import Counter
from dataclasses import dataclass

from anonsim import (
    DetectorHistory, FailurePattern, OracleProfile, Permutation, ReceiveLog, ScenarioConfig, SystemConfig, Trace,
)
from anonsim.transforms import max_id_self_trust
from anonsim.verify import ALGORITHMS, CheckReport, check_trace, prepare


def scenario(
    algorithm: str,
    n: int,
    f: int,
    inputs=None,
    crashes=None,
    kind=None,
    behavior="optimistic",
    convergence=0,
    policy="fifo",
    seed=0,
    horizon=None,
    rounds=None,
) -> ScenarioConfig:
    info = ALGORITHMS[algorithm]
    if inputs is None:
        inputs = (0,) * n if info.consensus else ()
    return prepare(ScenarioConfig(
        cfg=SystemConfig(n, f),
        algorithm=algorithm,
        inputs=tuple(inputs),
        pattern=FailurePattern.of(n, crashes or {}),
        oracle_kind=kind or info.oracle_kinds[0],
        profile=OracleProfile(behavior, convergence),
        policy=policy,
        seed=seed,
        horizon=horizon,
        rounds=rounds,
    ))


def factory_of(algorithm: str):
    return ALGORITHMS[algorithm].factory


def decisions(trace: Trace) -> dict[int, list[tuple]]:
    """Each deciding process's decisions, (step, value, round), in trace order."""
    found: dict[int, list[tuple]] = {}
    for ev in trace.events:
        if ev["ev"] == "decide":
            found.setdefault(ev["proc"], []).append((ev["step"], ev["value"], ev["r"]))
    return found


def halts(trace: Trace) -> dict[int, int]:
    """Each halted process's halt step."""
    return {ev["proc"]: ev["step"] for ev in trace.events if ev["ev"] == "halt"}


def report_of(trace: Trace, prop: str) -> CheckReport:
    """The report `check_trace` gives the trace for the property `prop`."""
    return next(r for r in check_trace(trace) if r.prop == prop)


def campaign_scenario(algorithm: str, seed: int) -> ScenarioConfig:
    """The adversarial consensus campaigns of acceptance criterion 2."""
    if algorithm == "floodmax":
        return scenario("floodmax", 4, 3, inputs=(0, 1, 1, 0), crashes={2: 25, 4: 60},
                        behavior="adversarial", convergence=100, policy="random",
                        seed=seed, horizon=1200)
    if algorithm == "lockmin":
        return scenario("lockmin", 5, 2, inputs=(0, 1, 0, 1, 1), crashes={2: 30, 4: 80},
                        behavior="adversarial", convergence=150, policy="random",
                        seed=seed, horizon=1500)
    if algorithm == "leadervote":
        return scenario("leadervote", 5, 2, inputs=(0, 1, 0, 1, 1), crashes={3: 40, 5: 90},
                        behavior="adversarial", convergence=150, policy="random",
                        seed=seed, horizon=1500)
    raise ValueError(algorithm)


def selftrust_scenario(seed: int) -> ScenarioConfig:
    """The randomized self-trust construction of acceptance criterion 6."""
    return scenario("random-selftrust", 5, 2, kind="crash-count",
                    crashes={2: 30, 5: 60}, behavior="adversarial",
                    convergence=120, policy="random", seed=seed,
                    horizon=2500, rounds=12)


def forced_id_factory(ids: dict[int, int]):
    """The randomized self-trust factory with pinned identifiers, for
    exercising the collision failure mode."""

    def factory(scenario: ScenarioConfig, proc: int):
        auto = max_id_self_trust(scenario, proc)
        auto.my_id = ids[proc]
        return auto

    return factory


def identity(n: int) -> Permutation:
    return Permutation(tuple(range(1, n + 1)))


def compose(a: Permutation, b: Permutation) -> Permutation:
    """a after b: compose(a, b)(p) = a(b(p))."""
    return Permutation(tuple(a(b(p)) for p in range(1, a.n + 1)))


def swap(n: int, a: int, b: int) -> Permutation:
    """The transposition of a and b on 1..n."""
    image = list(range(1, n + 1))
    image[a - 1], image[b - 1] = b, a
    return Permutation(tuple(image))


def cycle(n: int, cyc: tuple[int, ...]) -> Permutation:
    """Maps cyc[i] to cyc[i+1] (wrapping); everything else fixed."""
    image = list(range(1, n + 1))
    for i, p in enumerate(cyc):
        image[p - 1] = cyc[(i + 1) % len(cyc)]
    return Permutation(tuple(image))


@dataclass(frozen=True)
class LowestCrashedIndex:
    """Deliberately identity-revealing detector: outputs the lowest-index
    crashed process (or 0 when nothing crashed).  Its histories are valid per
    its own rule but not closed under permutation, which is what the
    anonymity checker must detect.
    """

    n: int
    kind: str = "lowest-crashed"

    def expected(self, pattern: FailurePattern) -> int:
        return min(pattern.crashed, default=0)

    def validates(self, history: DetectorHistory, pattern: FailurePattern) -> bool:
        want = self.expected(pattern)
        return all(v == want for p in range(1, self.n + 1) for v in history.row(p))

    def history(self, pattern: FailurePattern, horizon: int) -> DetectorHistory:
        want = self.expected(pattern)
        row = tuple([want] * (horizon + 1))
        return DetectorHistory(self.kind, self.n, horizon, tuple([row] * self.n))


def sends(trace: Trace) -> Counter:
    """The multiset of payloads sent in the trace."""
    return Counter(tuple(ev["payload"]) for ev in trace.events if ev["ev"] == "send")


def received(trace: Trace, proc: int) -> Counter:
    """The multiset of payloads delivered to `proc`."""
    return Counter(tuple(ev["payload"]) for ev in trace.events if ev["ev"] == "deliver" and ev["proc"] == proc)


def receive_log(trace: Trace) -> ReceiveLog:
    """Every delivery of the trace, by receiver, sender and step."""
    log = ReceiveLog({})
    for ev in trace.events:
        if ev["ev"] == "deliver":
            log.record(ev["proc"], ev["from"], ev["step"], tuple(ev["payload"]))
    return log
