"""Shared scenario builders and trace readers for the test suite."""

from collections import Counter

from anonsim import FailurePattern, OracleProfile, ReceiveLog, ScenarioConfig, SystemConfig, Trace
from anonsim.cli import ALGORITHMS


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
    sc = ScenarioConfig(
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
        identified=info.identified,
    )
    sc.validate()
    return sc


def factory_of(algorithm: str):
    return ALGORITHMS[algorithm].factory


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
