"""Self-tests of the benchmark: tracing arithmetic, gates and output shape.

They run toy instances through the same code paths as the benchmark, in
this process and without re-importing anonsim, and check that the tracer
restores every attribute it patched.
"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import run
import workloads

SRC = run.ROOT / "src"
if "anonsim" not in sys.modules and str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def api():
    return SimpleNamespace(
        package=importlib.import_module("anonsim"),
        **{m: importlib.import_module(f"anonsim.{m}") for m in run.MODULES},
    )


def trace_toy(workload, api, tmp_path):
    originals = {
        (owner, name): owner.__dict__[name]
        for owner, name in (
            (api.simulator, "explore"),
            (api.cli, "run_and_check"),
            (api.simulator.Automaton, "copy"),
            (api.model.FailurePattern, "crash_step"),
        )
    }
    passes, agree, layers, missing = run.traced(workload, api, tmp_path, "toy")
    assert missing == []
    for (owner, name), original in originals.items():
        assert owner.__dict__[name] is original, f"{name} left patched"
    totals = json.loads((tmp_path / "toy.layers.json").read_text())
    spans = (tmp_path / "toy.spans.jsonl").read_text().splitlines()
    assert spans and all(json.loads(line)["end"] >= json.loads(line)["start"] for line in spans)
    self_total = sum(entry["self_s"] for entry in totals["layers"].values())
    assert self_total <= layers["trace.wall_s"][0]
    assert agree, "traced and untraced passes printed different fingerprints"
    assert sum(p.failed for p in passes) == 0
    assert set(layers) == {m["name"] for m in SPEC["per_layer"]}
    return {name: value for name, (value, _) in layers.items()}


def test_campaign_layers(api, tmp_path):
    workload = workloads.CampaignMix(api, seed=3)
    workload.timed = workload.timed[:6]
    layers = trace_toy(workload, api, tmp_path)
    assert 0 < layers["detectors.cells_read"] <= layers["detectors.cells_drawn"]
    assert layers["simulator.steps"] > 0 and layers["consensus.polls.sim"] > 0
    assert layers["simulator.explore.key_calls"] == 0


@pytest.mark.parametrize("name", ["explore-consensus", "explore-suspector"])
def test_explore_layers(api, tmp_path, name):
    jobs = workloads.SMALL_JOBS[name]
    layers = trace_toy(workloads.Explore(api, name, jobs, jobs), api, tmp_path)
    assert layers["simulator.explore.key_calls"] == layers["simulator.explore.children_built"] + len(jobs)
    assert layers["simulator.explore.states"] == sum(job.states for job in jobs)
    assert layers["simulator.explore.terminals"] == sum(job.terminals for job in jobs)
    polls = "consensus" if name == "explore-consensus" else "transforms"
    assert layers[f"{polls}.polls.explore"] > 0 and layers[f"{polls}.polls.probe"] > 0
    assert layers["detectors.cells_drawn"] == 0


def test_explore_gate_rejects_changed_counts(api):
    job = workloads.SMALL_JOBS["explore-consensus"][1]
    changed = workloads.Job(job.name, job.doc, job.states + 1, job.terminals)
    assert workloads.Explore(api, "explore-consensus", (), (job,)).timed[0]().failed == 0
    assert workloads.Explore(api, "explore-consensus", (), (changed,)).timed[0]().failed == 1


def test_end_to_end_metrics_match_spec():
    workload = SimpleNamespace(verdict_ops=3)
    passes = [run.Pass(durations=[0.002, 0.003, 0.004] * 4, raw=[0.001] * 12) for _ in range(2)]
    metrics = run.end_to_end(workload, 0.05, passes)
    assert [(k, unit) for k, (_, unit, _) in metrics.items()] == [
        (m["name"], m["unit"]) for m in SPEC["end_to_end"]
    ]
    assert metrics["verdict_s"][0] == pytest.approx(0.009)
    assert all(value > 0 for value, _, _ in metrics.values())


def test_fails_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign-mix", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""
