"""Digests that pin sampled oracle tables and seeded trace bytes.

The oracle sampler's draw order is part of the replay contract: a change
that reorders, adds or drops a single RNG call changes these digests.  The
module needs no pytest, so every supported interpreter can check the pins:

    PYTHONPATH=src python tests/pins.py
"""

from __future__ import annotations

import hashlib
import sys

from helpers import campaign_scenario, factory_of, selftrust_scenario

from anonsim import DetectorSpec, FailurePattern, OracleProfile, run, sample_history
from anonsim.detectors import ALL_KINDS, BEHAVIORS
from anonsim.model import history_to_json

GRID_SHA256 = "95de135c7bc70f97a29f85f2715a70c6df564a49270d645fa2baf3ef47ee40eb"
GRID_TABLES = 2376
TRACE_SHA256 = "340efff0f48edc3052ce931986d10199041c53aeb41bf0f68b661f4c9993cb39"
TRACE_ALGORITHMS = ("floodmax", "lockmin", "leadervote", "random-selftrust")
TRACE_SEEDS = range(20)


def grid_tables():
    """Every kind and behaviour at n in {2, 3, 5}, over four crash patterns,
    three convergence steps and seeds 0-3, all at horizon 24."""
    for kind in ALL_KINDS:
        for behavior in BEHAVIORS:
            for n in (2, 3, 5):
                patterns = [{}, {1: 0}, {n: 7}] + ([{1: 3, 2: 12}] if n >= 3 else [])
                for crashes in patterns:
                    pattern = FailurePattern.of(n, crashes)
                    for convergence in (0, 9, 20):
                        profile = OracleProfile(behavior, convergence)
                        for seed in range(4):
                            yield sample_history(DetectorSpec(kind, n), pattern, profile, seed, 24)


def grid_digest() -> tuple[int, str]:
    digest = hashlib.sha256()
    count = 0
    for history in grid_tables():
        digest.update((history_to_json(history) + "\n").encode())
        count += 1
    return count, digest.hexdigest()


def trace_digest() -> str:
    """The criterion-2 campaigns and the criterion-6 construction, seeds 0-19."""
    digest = hashlib.sha256()
    for algorithm in TRACE_ALGORITHMS:
        for seed in TRACE_SEEDS:
            if algorithm == "random-selftrust":
                sc = selftrust_scenario(seed)
            else:
                sc = campaign_scenario(algorithm, seed)
            digest.update(run(sc, factory_of(algorithm)).to_jsonl().encode())
    return digest.hexdigest()


if __name__ == "__main__":
    count, grid = grid_digest()
    trace = trace_digest()
    ok = (count, grid, trace) == (GRID_TABLES, GRID_SHA256, TRACE_SHA256)
    print(f"python {sys.version.split()[0]}: grid {count} tables {grid}, traces {trace}: "
          f"{'match' if ok else 'MISMATCH'}")
    sys.exit(0 if ok else 1)
