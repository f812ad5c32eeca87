"""End-to-end command-line behavior and the exit-code contract."""

import json
import math
import os
import re
import resource
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from helpers import forced_id_factory, scenario
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from anonsim import ScenarioConfig, Trace, cli, run, run_schedule, verify
from anonsim.cli import ALGORITHMS, main
from anonsim.verify import FAIL, CheckReport

FLOODMAX = {
    "schema": 1,
    "algorithm": "floodmax",
    "n": 3,
    "f": 1,
    "inputs": [0, 1, 0],
    "crash": {"3": 9},
    "oracle": {"kind": "crash-count", "behavior": "adversarial", "convergence": 30},
    "policy": "random",
    "seed": 7,
    "horizon": 600,
}

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# a heartbeat transformation with no `rounds` whose only other process
# crashes: the lone live process finishes each round on its own heartbeat
LONE_SURVIVOR = {
    "schema": 1,
    "algorithm": "stable-suspector",
    "n": 2,
    "f": 1,
    "crash": {"2": 5},
    "oracle": {"kind": "crash-count", "behavior": "optimistic"},
}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestRun:
    def test_run_writes_trace_and_report(self, tmp_path, capsys):
        path = write(tmp_path, "s.json", FLOODMAX)
        code = main(["run", path, "--out", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "termination: pass" in out
        report = json.loads((tmp_path / "out" / "floodmax-seed7.report.json").read_text())
        assert report["ok"] is True

    def test_reruns_are_byte_identical(self, tmp_path):
        path = write(tmp_path, "s.json", FLOODMAX)
        main(["run", path, "--out", str(tmp_path / "a")])
        main(["run", path, "--out", str(tmp_path / "b")])
        a = (tmp_path / "a" / "floodmax-seed7.trace.jsonl").read_bytes()
        b = (tmp_path / "b" / "floodmax-seed7.trace.jsonl").read_bytes()
        assert a == b

    def test_seed_flag_overrides(self, tmp_path):
        path = write(tmp_path, "s.json", FLOODMAX)
        code = main(["run", path, "--seed", "99", "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "floodmax-seed99.trace.jsonl").exists()

    def test_config_errors_exit_2(self, tmp_path, capsys):
        bad = dict(FLOODMAX, f=3)
        assert main(["run", write(tmp_path, "bad.json", bad)]) == 2
        mismatch = dict(FLOODMAX, algorithm="leadervote")
        assert main(["run", write(tmp_path, "mm.json", mismatch)]) == 2
        gone = str(tmp_path / "missing.json")
        assert main(["run", gone]) == 2
        not_json = tmp_path / "nj.json"
        not_json.write_text("{broken")
        assert main(["run", str(not_json)]) == 2
        binary = tmp_path / "bin.json"
        binary.write_bytes(b"\xff\xfe\x00")
        assert main(["run", str(binary)]) == 2
        assert main(["check", str(binary)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("field, value", [
        ("horizon", "abc"), ("horizon", 2.5), ("horizon", True), ("rounds", "x"), ("rounds", 1.0),
        ("rounds", -200), ("oracle", "crash-count"), ("crash", [1, 2]),
        # numbers are read strictly: no float, string or boolean is coerced into
        # an integer, and only a JSON boolean is a boolean
        ("n", 3.9), ("f", True), ("inputs", [0, "1", 1]), ("inputs", [0, 1, 1.7]), ("inputs", [0, True, 0]),
        ("crash", {"3": 4.5}), ("oracle", dict(FLOODMAX["oracle"], convergence=2.5)), ("seed", 7.9),
        ("identified", "false"), ("identified", 0), ("schema", 99), ("schema", True),
        # oracle tables above the cell cap: the largest horizon below
        # sys.maxsize once raised MemoryError, exit 3
        ("horizon", 10**30), ("horizon", 9223372036854775806),
        # well-formed fields that break a model invariant: no step to run, two
        # crashes at f=1, a crash at the horizon, convergence past it, two
        # inputs for three processes, a non-binary input
        ("horizon", 0), ("crash", {"2": 5, "3": 9}), ("crash", {"3": 600}),
        ("oracle", dict(FLOODMAX["oracle"], convergence=601)), ("inputs", [0, 1]), ("inputs", [0, 2, 0]),
        # a crash of no process in 1..n, a negative crash step, a negative
        # convergence step
        ("crash", {"9": 5}), ("crash", {"3": -1}), ("oracle", dict(FLOODMAX["oracle"], convergence=-1)),
    ])
    def test_malformed_fields_exit_2(self, tmp_path, capsys, field, value):
        path = write(tmp_path, "bad.json", dict(FLOODMAX, **{field: value}))
        assert main(["run", path, "--out", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("crash", [{"3": 9, "03": 12}, {" 3": 9}, {"+3": 9}],
                             ids=["one-process-twice", "spaced", "signed"])
    def test_crash_key_other_than_the_process_number_exits_2(self, tmp_path, capsys, crash):
        # {"3": 9, "03": 12} once loaded as {3: 12}, dropping one scheduled
        # crash, and " 3" was accepted, then written back as "3"
        path = write(tmp_path, "bad.json", dict(FLOODMAX, crash=crash))
        assert main(["run", path, "--out", str(tmp_path)]) == 2
        assert "crash keys must name distinct processes" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, code", [
        ([], 2), (["run"], 2), (["run", str(SCENARIOS / "floodmax-n3.json"), "--policy", "nope"], 2), (["--help"], 0),
    ], ids=["no-command", "no-scenario", "unknown-policy", "help"])
    def test_usage_exit_codes(self, capsys, argv, code):
        assert main(argv) == code
        capsys.readouterr()

    def test_internal_error_exits_3_with_a_traceback(self, tmp_path, capsys, monkeypatch):
        def broken(scenario):
            raise RuntimeError("broken on purpose")

        monkeypatch.setattr(cli, "run_and_check", broken)
        assert main(["run", str(SCENARIOS / "floodmax-n3.json"), "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "Traceback" in err and "RuntimeError: broken on purpose" in err

    def test_failing_run_prints_its_reproduce_line(self, tmp_path, capsys, monkeypatch):
        run_and_check = cli.run_and_check

        def failing(scenario):
            trace, reports, _ = run_and_check(scenario)
            failed = CheckReport("agreement", FAIL, detail="failed on purpose")
            return trace, [failed if r.prop == "agreement" else r for r in reports], False

        monkeypatch.setattr(cli, "run_and_check", failing)
        path = str(SCENARIOS / "floodmax-n3.json")
        assert main(["run", path, "--seed", "11", "--out", str(tmp_path)]) == 1
        out = capsys.readouterr().out.splitlines()
        failed = out.index("agreement: fail (failed on purpose)")
        assert out[failed + 1] == f"  reproduce: anonsim run {path} --seed 11"

    @staticmethod
    def reproduced(tmp_path, capsys, path: str) -> str:
        """Known defect 1's seeded reproduction, from a scenario file at
        `path` whose own policy (fifo) and horizon (20) pass, so that only the
        overrides make the run fail: the reproduce line it prints, after
        running the line's arguments, as the shell splits them, to the same
        failure and the same trace bytes."""
        doc = {"algorithm": "floodmax", "n": 3, "f": 1, "inputs": [0, 0, 1], "crash": {"3": 9},
               "oracle": {"kind": "crash-count", "behavior": "optimistic"},
               "policy": "fifo", "seed": 0, "horizon": 20}
        Path(path).write_text(json.dumps(doc))
        argv = ["run", path, "--policy", "random", "--seed", "18", "--horizon", "400"]
        assert main(argv + ["--out", str(tmp_path / "a")]) == 1
        out = capsys.readouterr().out.splitlines()
        failed = out.index("agreement: fail (correct processes decided [0, 1])")
        line = out[failed + 1]
        printed = shlex.split(line.removeprefix("  reproduce: "))
        assert printed[:2] == ["anonsim", "run"]
        assert main(printed[1:] + ["--out", str(tmp_path / "b")]) == 1
        assert "agreement: fail (correct processes decided [0, 1])" in capsys.readouterr().out.splitlines()
        trace = "floodmax-seed18.trace.jsonl"
        assert (tmp_path / "a" / trace).read_bytes() == (tmp_path / "b" / trace).read_bytes()
        return line

    def test_reproduce_line_keeps_horizon_and_policy_overrides(self, tmp_path, capsys):
        path = str(tmp_path / "k.json")
        line = self.reproduced(tmp_path, capsys, path)
        assert line == f"  reproduce: anonsim run {path} --seed 18 --horizon 400 --policy random"

    def test_reproduce_line_quotes_the_scenario_path(self, tmp_path, capsys):
        # a path with a space is one argument of the printed command
        (tmp_path / "my dir").mkdir()
        path = str(tmp_path / "my dir" / "k.json")
        line = self.reproduced(tmp_path, capsys, path)
        assert line == f"  reproduce: anonsim run '{path}' --seed 18 --horizon 400 --policy random"

    def test_horizon_and_policy_flags_recorded(self, tmp_path, capsys):
        path = write(tmp_path, "s.json", FLOODMAX)
        assert main(["run", path, "--horizon", "450", "--policy", "crash-adjacent", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        recorded = json.loads((tmp_path / "floodmax-seed7.report.json").read_text())["scenario"]
        assert (recorded["horizon"], recorded["policy"]) == (450, "crash-adjacent")

    @pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.json")), ids=lambda path: path.name)
    def test_shipped_scenarios_run(self, tmp_path, capsys, path):
        doc = json.loads(path.read_text())
        if "scenario" in doc:  # a campaign: its template, for one seed
            doc["seeds"] = {"start": 0, "count": 1}
            assert main(["campaign", write(tmp_path, path.name, doc)]) == 0
        else:
            assert main(["run", str(path), "--out", str(tmp_path)]) == 0
        capsys.readouterr()


class TestCheck:
    def test_saved_trace_rechecked(self, tmp_path, capsys):
        path = write(tmp_path, "s.json", FLOODMAX)
        main(["run", path, "--out", str(tmp_path / "out")])
        trace_file = tmp_path / "out" / "floodmax-seed7.trace.jsonl"
        assert main(["check", str(trace_file)]) == 0
        capsys.readouterr()

    def test_doctored_trace_fails_with_exit_1(self, tmp_path, capsys):
        path = write(tmp_path, "s.json", FLOODMAX)
        main(["run", path, "--out", str(tmp_path / "out")])
        trace_file = tmp_path / "out" / "floodmax-seed7.trace.jsonl"
        lines = trace_file.read_text().splitlines()
        doctored = []
        for line in lines:
            doc = json.loads(line)
            if doc.get("ev") == "decide":
                doc["value"] = 7  # never proposed
            doctored.append(json.dumps(doc, sort_keys=True))
        trace_file.write_text("\n".join(doctored) + "\n")
        assert main(["check", str(trace_file)]) == 1
        out = capsys.readouterr().out
        assert "validity: fail" in out

    def test_non_json_line_exits_2(self, tmp_path, capsys):
        path = write(tmp_path, "s.json", FLOODMAX)
        main(["run", path, "--out", str(tmp_path / "out")])
        trace_file = tmp_path / "out" / "floodmax-seed7.trace.jsonl"
        lines = trace_file.read_text().splitlines()
        lines[3] = "{not json"
        trace_file.write_text("\n".join(lines) + "\n")
        assert main(["check", str(trace_file)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("field, value", [
        # a scenario run would refuse, or would record otherwise
        ("inputs", []), ("oracle", dict(FLOODMAX["oracle"], kind="self-trust")), ("algorithm", "leadervote"),
        ("identified", True), ("schema", 99),
    ])
    def test_meta_scenario_run_would_refuse_exits_2(self, tmp_path, capsys, field, value):
        main(["run", write(tmp_path, "s.json", FLOODMAX), "--out", str(tmp_path / "out")])
        trace_file = tmp_path / "out" / "floodmax-seed7.trace.jsonl"
        lines = trace_file.read_text().splitlines()
        meta = json.loads(lines[0])
        meta["scenario"][field] = value
        trace_file.write_text("\n".join([json.dumps(meta), *lines[1:]]) + "\n")
        assert main(["check", str(trace_file)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("crash", [{}, {"3": 10}, {"2": 9}])
    def test_crash_events_off_the_meta_crash_map_exit_2(self, tmp_path, capsys, crash):
        # the run crashed process 3 at step 9; a meta scenario naming another
        # crash map describes some other run
        main(["run", str(SCENARIOS / "floodmax-n3.json"), "--out", str(tmp_path / "out")])
        trace_file = tmp_path / "out" / "floodmax-seed7.trace.jsonl"
        lines = trace_file.read_text().splitlines()
        assert any(json.loads(line) == {"ev": "crash", "proc": 3, "step": 9} for line in lines)
        meta = json.loads(lines[0])
        meta["scenario"]["crash"] = crash
        trace_file.write_text("\n".join([json.dumps(meta), *lines[1:]]) + "\n")
        assert main(["check", str(trace_file)]) == 2
        assert "crash" in capsys.readouterr().err

    def test_crash_after_the_run_ended_is_accepted(self, tmp_path, capsys):
        # a run that settles before a scheduled crash's step never applies it
        doc = dict(FLOODMAX, policy="fifo", crash={"3": 500})
        main(["run", write(tmp_path, "s.json", doc), "--out", str(tmp_path / "out")])
        trace_file = tmp_path / "out" / "floodmax-seed7.trace.jsonl"
        assert '"ev": "crash"' not in trace_file.read_text()
        assert main(["check", str(trace_file)]) == 0
        capsys.readouterr()

    def test_replayed_schedule_trace_is_checkable(self, tmp_path, capsys):
        # an explore witness names its crashes in its meta scenario
        sc = scenario("floodmax", 2, 1, inputs=(0, 1))
        schedule = [("wake", 1), ("wake", 2), ("crash", 2), ("deliver", 1, 2, ("Propose", 1, 1), 1),
                    ("poll", 1), ("poll", 1)]
        trace_file = tmp_path / "witness.trace.jsonl"
        trace_file.write_text(run_schedule(sc, ALGORITHMS["floodmax"].factory, schedule).to_jsonl())
        assert main(["check", str(trace_file)]) in (0, 1)
        capsys.readouterr()

    def test_explore_witness_past_the_horizon_is_checkable(self, tmp_path, capsys):
        # floodmax's agreement witness (Known defect 1) crashes p2 at step 7,
        # past the scenario's horizon of 6: the trace raises its horizon to
        # the schedule's length, and `check` fails what explore failed
        doc = dict(FLOODMAX, crash={}, horizon=6, oracle={**FLOODMAX["oracle"], "convergence": 0})
        assert main(["explore", write(tmp_path, "s.json", doc), "--out", str(tmp_path / "w")]) == 1
        capsys.readouterr()
        trace_file = tmp_path / "w" / "violation.trace.jsonl"
        schedule = json.loads((tmp_path / "w" / "violation.schedule.json").read_text())["schedule"]
        assert Trace.from_jsonl(trace_file.read_text()).scenario.horizon == len(schedule) > 6
        assert main(["check", str(trace_file)]) == 1
        assert "agreement: fail (correct processes decided [0, 1])" in capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_check_reports_what_run_reports(self, tmp_path, capsys, algorithm):
        consensus = ALGORITHMS[algorithm].consensus
        sc = scenario(algorithm, 3, 1, crashes={2: 40}, policy="random", seed=5, horizon=900,
                      rounds=None if consensus else 8)
        path = write(tmp_path, "s.json", sc.to_dict())
        assert main(["run", path, "--out", str(tmp_path / "out")]) in (0, 1)
        ran = capsys.readouterr().out.splitlines()
        assert ran[-2].startswith("trace: ") and ran[-1].startswith("report: ")
        assert main(["check", ran[-2].removeprefix("trace: ")]) in (0, 1)
        assert capsys.readouterr().out.splitlines() == ran[:-2]

    def test_short_protocol_message_exits_2(self, tmp_path, capsys):
        sc = scenario("lockmin", 3, 1, inputs=(0, 1, 1), policy="random", seed=2)
        lines = run(sc, ALGORITHMS["lockmin"].factory).to_jsonl().splitlines()
        first = next(i for i, line in enumerate(lines) if json.loads(line).get("payload", [""])[0] == "Lock")
        event = json.loads(lines[first])
        event["payload"] = event["payload"][:3]
        lines[first] = json.dumps(event)
        trace_file = tmp_path / "t.trace.jsonl"
        trace_file.write_text("\n".join(lines) + "\n")
        assert main(["check", str(trace_file)]) == 2
        assert "does not have 4 fields" in capsys.readouterr().err

    @pytest.mark.parametrize("algorithm, tag, fields", [("leadervote", "Decide", 2), ("random-selftrust", "HB", 3)])
    def test_long_lemma_message_exits_2(self, tmp_path, capsys, algorithm, tag, fields):
        # the lemma monitors read Decide and HB payloads too: one field more
        # makes the trace malformed, not the checker fail
        consensus = ALGORITHMS[algorithm].consensus
        sc = scenario(algorithm, 3, 1, inputs=(0, 1, 1) if consensus else None, policy="random", seed=2,
                      horizon=900, rounds=None if consensus else 8)
        lines = run(sc, ALGORITHMS[algorithm].factory).to_jsonl().splitlines()
        first = next(i for i, line in enumerate(lines) if json.loads(line).get("payload", [""])[0] == tag)
        event = json.loads(lines[first])
        event["payload"].append(0)
        lines[first] = json.dumps(event)
        trace_file = tmp_path / "t.trace.jsonl"
        trace_file.write_text("\n".join(lines) + "\n")
        assert main(["check", str(trace_file)]) == 2
        assert f"does not have {fields} fields" in capsys.readouterr().err

    def test_lock_round_not_an_integer_exits_2(self, tmp_path, capsys):
        # lock exclusivity orders rounds, so a Lock whose round is a string
        # makes the trace malformed, not the checker fail
        sc = scenario("lockmin", 3, 1, inputs=(0, 1, 1), policy="random", seed=2)
        lines = run(sc, ALGORITHMS["lockmin"].factory).to_jsonl().splitlines()
        first = next(i for i, line in enumerate(lines) if json.loads(line).get("payload", [""])[0] == "Lock")
        event = json.loads(lines[first])
        event["payload"][1] = "0"
        lines[first] = json.dumps(event)
        trace_file = tmp_path / "t.trace.jsonl"
        trace_file.write_text("\n".join(lines) + "\n")
        assert main(["check", str(trace_file)]) == 2
        assert "the second an integer round" in capsys.readouterr().err

    def test_end_line_without_truncated_exits_2(self, tmp_path, capsys):
        main(["run", write(tmp_path, "s.json", FLOODMAX), "--out", str(tmp_path / "out")])
        trace_file = tmp_path / "out" / "floodmax-seed7.trace.jsonl"
        lines = trace_file.read_text().splitlines()
        end = json.loads(lines[-1])
        del end["truncated"]
        trace_file.write_text("\n".join([*lines[:-1], json.dumps(end)]) + "\n")
        assert main(["check", str(trace_file)]) == 2
        assert "trace end line needs a boolean 'truncated'" in capsys.readouterr().err

    @pytest.mark.parametrize("move", ["past-horizon", "before-previous"])
    def test_event_past_the_horizon_or_out_of_step_order_exits_2(self, tmp_path, capsys, move):
        # an event moved past the horizon made `check` build the emulated
        # history out to its step (8 s and 515 MB at step 2,000,000), and
        # one moved before its predecessor was replayed out of order
        sc = scenario("stable-suspector", 3, 1, rounds=3)
        assert sc.effective_horizon == 450
        lines = run(sc, ALGORITHMS["stable-suspector"].factory).to_jsonl().splitlines()
        outputs = [i for i, line in enumerate(lines) if json.loads(line).get("ev") == "output"]
        i = outputs[-1] if move == "past-horizon" else outputs[len(outputs) // 2]
        event = json.loads(lines[i])
        event["step"] = 451 if move == "past-horizon" else json.loads(lines[i - 1])["step"] - 1
        assert event["step"] >= 0
        lines[i] = json.dumps(event)
        if move == "past-horizon":  # in step order: the moved output is the last event
            lines = [*lines[:i], *lines[i + 1:-1], lines[i], lines[-1]]
        trace_file = tmp_path / "t.trace.jsonl"
        trace_file.write_text("\n".join(lines) + "\n")
        assert main(["check", str(trace_file)]) == 2
        assert "trace events must come in step order, none past the horizon 450" in capsys.readouterr().err

    def test_check_reports_id_collision(self, tmp_path, capsys):
        sc = scenario("random-selftrust", 3, 1, policy="random", seed=4, horizon=900, rounds=8)
        trace_file = tmp_path / "collision.trace.jsonl"
        trace_file.write_text(run(sc, forced_id_factory({1: 7, 2: 7, 3: 3})).to_jsonl())
        assert main(["check", str(trace_file)]) == 1
        assert "id-collision: fail (duplicate identifiers drawn)" in capsys.readouterr().out.splitlines()


class TestCampaign:
    def campaign_doc(self, count=10):
        return {
            "schema": 1,
            "mode": "sweep",
            "seeds": {"start": 0, "count": count},
            "scenario": FLOODMAX,
        }

    def test_sweep_aggregates(self, tmp_path, capsys):
        path = write(tmp_path, "c.json", self.campaign_doc())
        out_file = tmp_path / "summary.json"
        assert main(["campaign", path, "--out", str(out_file)]) == 0
        printed = capsys.readouterr().out
        assert "floodmax, 10 seeds" in printed
        summary = json.loads(out_file.read_text())
        assert summary["counts"]["termination/pass"] == 10
        assert summary["failures"] == []

    def test_summary_counts_match_total(self, tmp_path, capsys):
        path = write(tmp_path, "c.json", self.campaign_doc(6))
        out_file = tmp_path / "summary.json"
        main(["campaign", path, "--out", str(out_file)])
        capsys.readouterr()
        summary = json.loads(out_file.read_text())
        per_property = {}
        for key, count in summary["counts"].items():
            prop = key.split("/")[0]
            per_property[prop] = per_property.get(prop, 0) + count
        assert set(per_property.values()) == {6}

    def test_empty_seed_range_rejected(self, tmp_path, capsys):
        doc = self.campaign_doc()
        doc["seeds"] = {"start": 0, "count": 0}
        assert main(["campaign", write(tmp_path, "c.json", doc)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("field, value", [
        ("seeds", "0-9"), ("seeds", [1, "2"]), ("seeds", {"start": "a", "count": 2}),
        ("seeds", {"count": 1.5}), ("jobs", "x"), ("jobs", 2.5), ("mode", ["sweep"]), ("scenario", [1]),
        ("schema", 99), ("scenario", dict(FLOODMAX, schema=99)), ("jobs", -3), ("jobs", 0), ("mode", "single"),
        # counts that cannot be listed: refused before any memory is taken
        ("seeds", {"start": 0, "count": 2**62}), ("seeds", {"start": 0, "count": 2**64}),
        ("mode", "explore"),
    ])
    def test_malformed_campaign_exits_2(self, tmp_path, capsys, field, value):
        doc = dict(self.campaign_doc(2), **{field: value})
        assert main(["campaign", write(tmp_path, "c.json", doc)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_campaign_without_scenario_exits_2(self, tmp_path, capsys):
        doc = self.campaign_doc()
        del doc["scenario"]
        assert main(["campaign", write(tmp_path, "c.json", doc)]) == 2
        assert "'scenario' template" in capsys.readouterr().err

    def test_scenario_parsed_once(self, tmp_path, capsys, monkeypatch):
        # workers run the scenario the campaign admitted, reseeded, and parse
        # nothing per seed
        from_dict, parsed = ScenarioConfig.from_dict.__func__, []

        def counted(cls, doc):
            parsed.append(doc)
            return from_dict(cls, doc)

        monkeypatch.setattr(ScenarioConfig, "from_dict", classmethod(counted))
        assert main(["campaign", write(tmp_path, "c.json", self.campaign_doc(33)), "--jobs", "1"]) == 0
        assert "floodmax, 33 seeds" in capsys.readouterr().out
        assert len(parsed) == 1

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_flag_below_1_exits_2(self, tmp_path, capsys, jobs):
        path = write(tmp_path, "c.json", self.campaign_doc(2))
        assert main(["campaign", path, "--jobs", jobs]) == 2
        assert "jobs must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("n, crash, convergence, rounds, successes, code", [
        (3, {"3": 6}, 8, 2, 25, 0),
        (2, {"2": 3}, 4, 1, 16, 1),
    ])
    def test_success_bound_decides_verdict(
        self, tmp_path, capsys, n, crash, convergence, rounds, successes, code
    ):
        # random-selftrust fails some seeds by design; only a rate below 2/3 fails the campaign
        doc = self.campaign_doc(30)
        doc["scenario"] = {
            "algorithm": "random-selftrust", "n": n, "f": 1, "crash": crash, "rounds": rounds,
            "oracle": {"kind": "crash-count", "behavior": "adversarial", "convergence": convergence},
        }
        out_file = tmp_path / "summary.json"
        assert main(["campaign", write(tmp_path, "c.json", doc), "--out", str(out_file)]) == code
        printed = capsys.readouterr().out
        assert f"success-rate: {successes}/30" in printed
        assert "FAIL seed=" in printed
        failures = [f["property"] for f in json.loads(out_file.read_text())["failures"]]
        assert failures[-1:] == ([] if code == 0 else ["success-rate"])

    def test_pool_starts_no_more_workers_than_chunks(self, tmp_path, capsys, monkeypatch):
        sizes = []

        class RecordingPool:
            # records its size and runs the work in this process, starting none
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        for count in (40, 2):  # 3 chunks of 16 seeds, then 1
            assert main(["campaign", write(tmp_path, "c.json", self.campaign_doc(count)), "--jobs", "64"]) == 0
        capsys.readouterr()
        assert sizes == [3]

    def test_parallel_jobs_agree_with_serial(self, tmp_path, capsys):
        # 33 seeds make 3 chunks, so both workers get some
        path = write(tmp_path, "c.json", self.campaign_doc(33))
        serial = tmp_path / "serial.json"
        parallel = tmp_path / "parallel.json"
        main(["campaign", path, "--out", str(serial), "--jobs", "1"])
        main(["campaign", path, "--out", str(parallel), "--jobs", "2"])
        capsys.readouterr()
        assert json.loads(serial.read_text()) == json.loads(parallel.read_text())


class TestOnePreparation:
    """`run`, `campaign`, `explore` and `check` each take a scenario as
    `verify.prepare` makes it, so every command runs one system."""

    def test_cli_names_are_the_verify_functions(self):
        assert cli.normalize_scenario is verify.prepare
        assert cli.explore_crash_limit is verify.explore_crash_limit
        assert cli.ALGORITHMS is verify.ALGORITHMS

    @pytest.mark.parametrize("algorithm", ["stable-suspector", "eventual-suspector", "random-selftrust"])
    @pytest.mark.parametrize("n, f, crash", [(2, 1, {"2": 5}), (1, 0, {})], ids=["crash", "n1"])
    def test_roundless_transformation_with_one_live_process_ends(self, tmp_path, capsys, algorithm, n, f, crash):
        # with no round cap, a lone live process looped until the engine's
        # poll limit, and `run` and `campaign` exited 3
        doc = dict(LONE_SURVIVOR, algorithm=algorithm, n=n, f=f, crash=crash)
        assert main(["run", write(tmp_path, "s.json", doc), "--out", str(tmp_path / "out")]) in (0, 1)
        campaign = {"schema": 1, "seeds": {"start": 0, "count": 3}, "scenario": doc}
        assert main(["campaign", write(tmp_path, "c.json", campaign)]) in (0, 1)
        assert "Traceback" not in capsys.readouterr().err

    def test_roundless_run_records_its_cap_and_checks(self, tmp_path, capsys):
        assert main(["run", write(tmp_path, "s.json", LONE_SURVIVOR), "--out", str(tmp_path / "out")]) == 0
        trace_file = tmp_path / "out" / "stable-suspector-seed0.trace.jsonl"
        lines = trace_file.read_text().splitlines()
        meta = json.loads(lines[0])
        assert meta["scenario"]["rounds"] == LONE_SURVIVOR["f"] + 5
        assert main(["check", str(trace_file)]) == 0
        # a trace whose scenario has no cap records a system no command runs
        meta["scenario"]["rounds"] = None
        trace_file.write_text("\n".join([json.dumps(meta), *lines[1:]]) + "\n")
        assert main(["check", str(trace_file)]) == 2
        assert "differs from what run would record" in capsys.readouterr().err


class TestExplore:
    def test_explore_reports_counts(self, tmp_path, capsys):
        doc = {
            "schema": 1, "algorithm": "floodmax", "n": 2, "f": 1,
            "inputs": [0, 1], "crash": {},
            "oracle": {"kind": "crash-count", "behavior": "optimistic", "convergence": 0},
            "policy": "fifo", "seed": 0,
        }
        assert main(["explore", write(tmp_path, "e.json", doc)]) == 0
        out = capsys.readouterr().out
        assert "violations: 0" in out
        assert "explored states: 92" in out
        assert "children: 146 (dedup ratio: 0.6233 new states per child), 55 skipped unbuilt" in out
        assert "peak frontier: 18" in out and "depth: 8" in out
        assert "local transitions: 35 computed, 27 reused\n" in out

    def test_explore_reports_rate_and_peak_memory(self, tmp_path, capsys):
        sc = scenario("floodmax", 2, 1, inputs=(0, 1)).to_dict()
        assert main(["explore", write(tmp_path, "e.json", sc)]) == 0
        out = capsys.readouterr().out
        rate, seconds = re.search(r"^states/s: (\d+) \((\d+\.\d+) s\)$", out, re.M).groups()
        peak = float(re.search(r"^peak memory: (\d+\.\d) MB$", out, re.M).group(1))
        assert int(rate) > 0 and float(seconds) > 0
        # the printed peak is rounded to 0.1 MB, so round the bound the same way
        bound = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        assert 0 < peak <= float(f"{bound:.1f}")

    def test_python_m_anonsim_from_the_source_tree(self):
        # the command the bench-smoke CI job runs, with the package not installed
        path = os.pathsep.join(filter(None, [str(SCENARIOS.parent / "src"), os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-m", "anonsim", "explore", str(SCENARIOS / "explore-lockmin-n3.json")],
                              env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert "explored states: 36536\n" in done.stdout

    @pytest.mark.parametrize("unbuffered", ["1", ""])
    def test_closed_stdout_exits_2(self, unbuffered):
        # `anonsim explore ... | head` closes the pipe before explore prints;
        # the first print, or the final flush when stdout is buffered, hits
        # the closed pipe, which is a usage error and no traceback
        path = os.pathsep.join(filter(None, [str(SCENARIOS.parent / "src"), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path, "PYTHONUNBUFFERED": unbuffered}
        proc = subprocess.Popen([sys.executable, "-m", "anonsim", "explore", str(SCENARIOS / "explore-lockmin-n3.json")],
                                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        proc.stdout.close()
        _, err = proc.communicate(timeout=300)
        assert proc.returncode == 2, err
        assert "Traceback" not in err and "Exception ignored" not in err
        assert err == "error: standard output was closed\n"

    def test_n4_partial_exits_1(self, tmp_path, capsys):
        doc = {
            "schema": 1, "algorithm": "floodmax", "n": 4, "f": 1,
            "inputs": [0, 0, 0, 1], "crash": {},
            "oracle": {"kind": "crash-count", "behavior": "optimistic", "convergence": 0},
            "policy": "fifo", "seed": 0,
        }
        assert main(["explore", write(tmp_path, "e.json", doc), "--max-states", "20000"]) == 1
        out = capsys.readouterr().out
        assert "explored states: 20000" in out and "PARTIAL" in out

    def test_seed_flag_honoured(self, tmp_path, capsys):
        # this scenario has violations, so the witness records the scenario explored
        doc = TestUnwritableOut.SUSPECTOR
        assert main(["explore", write(tmp_path, "e.json", doc), "--seed", "41", "--out", str(tmp_path / "w")]) == 1
        capsys.readouterr()
        assert json.loads((tmp_path / "w" / "violation.schedule.json").read_text())["scenario"]["seed"] == 41

    def test_algorithm_without_monitor_exits_2(self, tmp_path, capsys):
        doc = scenario("leader-announce", 2, 1, rounds=3).to_dict()
        assert main(["explore", write(tmp_path, "e.json", doc)]) == 2
        assert "no exploration monitor" in capsys.readouterr().err

    def test_budget_exceeded_flags_partial(self, tmp_path, capsys):
        doc = {
            "schema": 1, "algorithm": "lockmin", "n": 3, "f": 1,
            "inputs": [0, 1, 1], "crash": {},
            "oracle": {"kind": "eventual-crash-count", "behavior": "optimistic", "convergence": 0},
            "policy": "fifo", "seed": 0,
        }
        assert main(["explore", write(tmp_path, "e.json", doc), "--max-states", "40"]) == 1
        out = capsys.readouterr().out
        assert "PARTIAL" in out

    @pytest.mark.parametrize("rounds, states, terminals", [(None, 240, 45), (6, 240, 45), (5, 196, 37)])
    def test_transformation_without_rounds_capped_at_f_plus_5(self, tmp_path, capsys, rounds, states, terminals):
        doc = {"schema": 1, "algorithm": "eventual-suspector", "n": 2, "f": 1, "crash": {},
               "oracle": {"kind": "crash-count", "behavior": "optimistic", "convergence": 0}}
        if rounds is not None:
            doc["rounds"] = rounds
        assert main(["explore", write(tmp_path, "e.json", doc)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert f"explored states: {states}" in out and f"terminal states: {terminals}" in out

    @pytest.mark.parametrize("n, code", [(31, 1), (32, 2)])
    def test_more_processes_than_a_key_slot_masks_exit_2(self, tmp_path, capsys, n, code):
        # n=32 once raised OverflowError from a process mask, exit 3; n=31
        # is a partial search
        doc = scenario("floodmax", n, 1, inputs=(0,) * (n - 1) + (1,)).to_dict()
        assert main(["explore", write(tmp_path, "e.json", doc), "--max-states", "200"]) == code
        captured = capsys.readouterr()
        if code == 1:
            assert "PARTIAL" in captured.out
        else:
            assert "explore takes at most 31 processes, not n=32" in captured.err

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one_exits_2(self, tmp_path, capsys, budget):
        sc = scenario("floodmax", 2, 1, inputs=(0, 1)).to_dict()
        assert main(["explore", write(tmp_path, "e.json", sc), "--max-states", str(budget)]) == 2
        captured = capsys.readouterr()
        assert "PARTIAL" not in captured.out and "state budget" in captured.err


SMALL_HISTORY = {"kind": "crash-count", "n": 2, "horizon": 1, "out": [[0, 1], [0, 0]], "convergence": 1}
SMALL_PATTERN = {"n": 2, "f": 1, "crash": {"2": 1}}


class TestValidateHistory:
    def test_valid_history_and_anonymity(self, tmp_path, capsys):
        from anonsim import DetectorSpec, FailurePattern, OracleProfile, SystemConfig, sample_history
        from anonsim.model import history_to_json, pattern_to_json

        pat = FailurePattern.of(3, {2: 4})
        hist = sample_history(DetectorSpec("crash-count", 3), pat,
                              OracleProfile("adversarial", 6), seed=3, horizon=10)
        hp = tmp_path / "h.json"
        pp = tmp_path / "p.json"
        hp.write_text(history_to_json(hist))
        pp.write_text(pattern_to_json(SystemConfig(3, 1), pat))
        assert main(["validate-history", "--history", str(hp), "--pattern", str(pp), "--anonymity"]) == 0
        out = capsys.readouterr().out
        assert "valid" in out and "permutation-closure: pass" in out

    def test_invalid_history_exits_1(self, tmp_path, capsys):
        from anonsim import DetectorHistory, FailurePattern, SystemConfig
        from anonsim.model import history_to_json, pattern_to_json

        pat = FailurePattern.of(2, {2: 1})
        bad = DetectorHistory("crash-count", 2, 1, ((0, 0), (0, 0)))  # misses the crash
        hp = tmp_path / "h.json"
        pp = tmp_path / "p.json"
        hp.write_text(history_to_json(bad))
        pp.write_text(pattern_to_json(SystemConfig(2, 1), pat))
        assert main(["validate-history", "--history", str(hp), "--pattern", str(pp)]) == 1
        capsys.readouterr()

    def test_count_before_its_crash_exits_1(self, tmp_path, capsys):
        # n=2, process 2 crashes at step 5, and both rows read 1 from step 0
        history = {"kind": "crash-count", "n": 2, "horizon": 6, "out": [[1] * 7, [1] * 7]}
        hp = write(tmp_path, "h.json", history)
        pp = write(tmp_path, "p.json", {"n": 2, "f": 1, "crash": {"2": 5}})
        assert main(["validate-history", "--history", hp, "--pattern", pp]) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_anonymity_violation_exits_1(self, tmp_path, capsys):
        # a valid perfect history that suspects process 2 only at process 1:
        # relabelling the processes breaks its validity
        history = {"kind": "perfect", "n": 2, "horizon": 2, "out": [[[], [2], [2]], [[], [], []]]}
        hp = write(tmp_path, "h.json", history)
        pp = write(tmp_path, "p.json", {"n": 2, "f": 1, "crash": {"2": 1}})
        assert main(["validate-history", "--history", hp, "--pattern", pp, "--anonymity"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "history kind=perfect: valid" and out[-1] == "  violating relabelling: [2, 1]"

    def test_unknown_kind_exits_2(self, tmp_path, capsys):
        hp = tmp_path / "h.json"
        pp = tmp_path / "p.json"
        hp.write_text('{"kind": "bogus", "n": 2, "horizon": 0, "out": [[0], [0]]}')
        pp.write_text('{"n": 2, "f": 1, "crash": {}}')
        assert main(["validate-history", "--history", str(hp), "--pattern", str(pp)]) == 2
        assert "error: unknown detector kind 'bogus'" in capsys.readouterr().err

    def test_huge_pattern_rejected_without_building_its_processes(self, tmp_path, capsys):
        # the crash-budget check built the pattern's correct set first: 429 MB
        # and about 1 s at n = 4,000,000 before the size mismatch was found
        hp, pp = write(tmp_path, "h.json", SMALL_HISTORY), write(tmp_path, "p.json", {"n": 4_000_000, "f": 0})
        tracemalloc.start()
        try:
            code = main(["validate-history", "--history", hp, "--pattern", pp])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "history/pattern size does not match the spec" in capsys.readouterr().err
        assert peak < 20 * 2**20

    @pytest.mark.parametrize("history, pattern, error", [
        ({**SMALL_HISTORY, "n": [2]}, SMALL_PATTERN, "malformed input"),
        ({**SMALL_HISTORY, "out": 5}, SMALL_PATTERN, "malformed input"),
        ([SMALL_HISTORY], SMALL_PATTERN, "malformed input"),
        (SMALL_HISTORY, {**SMALL_PATTERN, "crash": [2]}, "malformed input"),
        ({**SMALL_HISTORY, "out": [[[[1]], 1], [0, 0]]}, SMALL_PATTERN, "malformed input"),
        (SMALL_HISTORY, {**SMALL_PATTERN, "crash": {"2": 1, "02": 0}}, "malformed input"),
        (SMALL_HISTORY, {**SMALL_PATTERN, "crash": {" 2": 1}}, "malformed input"),
        (SMALL_HISTORY, {**SMALL_PATTERN, "crash": {"+2": 1}}, "malformed input"),
        ({**SMALL_HISTORY, "horizon": -1}, SMALL_PATTERN, "malformed input: negative horizon -1"),
        ({**SMALL_HISTORY, "emulated_from": "x"}, SMALL_PATTERN, "malformed input: 'emulated_from' must be a list"),
        ({**SMALL_HISTORY, "out": [[0, 1], [0]]}, SMALL_PATTERN, "malformed input: row of length 1 for horizon 1"),
        (SMALL_HISTORY, {**SMALL_PATTERN, "n": 3}, "history/pattern size does not match the spec"),
        (None, SMALL_PATTERN, "cannot read input file"),  # no history file
    ], ids=["n-list", "out-int", "top-level-array", "crash-list", "nested-cell", "crash-key-twice",
            "crash-key-spaced", "crash-key-signed", "negative-horizon", "emulated-from-string", "short-row",
            "pattern-n-differs", "missing-history"])
    def test_malformed_input_exits_2(self, tmp_path, capsys, history, pattern, error):
        pp = write(tmp_path, "p.json", pattern)
        hp = str(tmp_path / "h.json") if history is None else write(tmp_path, "h.json", history)
        assert main(["validate-history", "--history", hp, "--pattern", pp]) == 2
        assert error in capsys.readouterr().err


# --- the exit-code contract: any JSON in any field exits 0, 1 or 2, never 3 ----

KEYS = st.sampled_from(["n", "f", "kind", "behavior", "convergence", "start", "count", "ev", "proc",
                        "step", "payload", "value", "r", "from", "scenario"]) | st.text(max_size=4)
SCALARS = (
    st.none() | st.booleans() | st.integers(-2, 12) | st.floats(-2.5, 12.5)
    | st.sampled_from([math.inf, -math.inf, math.nan]) | st.text(max_size=6)
    | st.sampled_from(["Lock", "Decide", "HB", "crash-count", "lockmin", "send", "decide", "output"])
)


def nest(inner):
    return st.lists(inner, max_size=4) | st.dictionaries(KEYS, inner, max_size=3)


JSON = st.recursive(SCALARS, nest, max_leaves=8)
CONTRACT = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
SMALL = dict(FLOODMAX, horizon=200)


def replace_fields(data, doc: dict, nested: tuple[str, ...]) -> dict:
    """`doc` with one or two fields, top-level or inside the `nested` objects,
    replaced by arbitrary JSON."""
    paths = [(key,) for key in doc] + [(outer, key) for outer in nested for key in doc[outer]]
    chosen = data.draw(st.lists(st.sampled_from(sorted(paths)), min_size=1, max_size=2, unique=True))
    doc = json.loads(json.dumps(doc))
    for path in chosen:
        owner = doc if len(path) == 1 else doc[path[0]]
        if isinstance(owner, dict):  # not when the outer object itself was replaced
            owner[path[-1]] = data.draw(JSON)
    return doc


# one short saved trace per protocol family whose messages the checkers read
TRACES = tuple(
    run(scenario(algorithm, 3, 1, crashes={3: 20}, policy="random", seed=1, horizon=300, rounds=rounds),
        ALGORITHMS[algorithm].factory).to_jsonl()
    for algorithm, rounds in [("lockmin", None), ("leadervote", None), ("stable-suspector", 3),
                              ("random-selftrust", 3)]
)


def contract_holds(code: int, capsys) -> None:
    err = capsys.readouterr().err
    assert code in (0, 1, 2), err


class TestUnwritableOut:
    # an --out that cannot be written is a usage error, not a bug in anonsim
    SUSPECTOR = {"schema": 1, "algorithm": "stable-suspector", "n": 2, "f": 1, "rounds": 1,
                 "oracle": {"kind": "crash-count"}}

    @pytest.mark.parametrize("case", ["run-into-file", "campaign-into-directory",
                                      "campaign-into-missing-directory", "explore-into-file"])
    def test_exits_2(self, tmp_path, capsys, case):
        existing = tmp_path / "existing"
        existing.write_text("")
        campaign = write(tmp_path, "c.json", {"schema": 1, "seeds": {"start": 0, "count": 2}, "scenario": FLOODMAX})
        argv = {
            "run-into-file": ["run", str(SCENARIOS / "floodmax-n3.json"), "--out", str(existing)],
            "campaign-into-directory": ["campaign", campaign, "--out", str(tmp_path)],
            "campaign-into-missing-directory": ["campaign", campaign, "--out", str(tmp_path / "missing" / "x.json")],
            # this scenario has violations, so explore writes a witness
            "explore-into-file": ["explore", write(tmp_path, "e.json", self.SUSPECTOR), "--out", str(existing)],
        }[case]
        assert main(argv) == 2
        out = capsys.readouterr()
        assert "error: cannot write output" in out.err and "Traceback" not in out.err
        if case == "explore-into-file":
            assert "violations: 0" not in out.out


class TestExitCodeContract:
    @CONTRACT
    @given(data=st.data())
    def test_scenario(self, tmp_path, capsys, data):
        doc = replace_fields(data, SMALL, ("oracle", "crash"))
        contract_holds(main(["run", write(tmp_path, "s.json", doc), "--out", str(tmp_path / "out")]), capsys)

    @CONTRACT
    @given(data=st.data())
    def test_campaign(self, tmp_path, capsys, data):
        base = {"schema": 1, "mode": "sweep", "seeds": {"start": 0, "count": 2}, "scenario": SMALL}
        doc = replace_fields(data, base, ("seeds", "scenario"))
        contract_holds(main(["campaign", write(tmp_path, "c.json", doc), "--jobs", "1"]), capsys)

    @CONTRACT
    @given(data=st.data())
    def test_trace(self, tmp_path, capsys, data):
        lines = data.draw(st.sampled_from(TRACES)).splitlines()
        i = data.draw(st.integers(0, len(lines) - 1))
        if data.draw(st.booleans()):
            lines[i] = data.draw(st.text(max_size=8) | JSON.map(json.dumps))
        else:
            line = json.loads(lines[i])
            nested = tuple(key for key, value in line.items() if isinstance(value, dict))  # the meta scenario
            lines[i] = json.dumps(replace_fields(data, line, nested))
        path = tmp_path / "t.trace.jsonl"
        path.write_text("\n".join(lines) + "\n")
        contract_holds(main(["check", str(path)]), capsys)

    @CONTRACT
    @given(data=st.data())
    def test_history(self, tmp_path, capsys, data):
        history, pattern = SMALL_HISTORY, SMALL_PATTERN
        target = data.draw(st.sampled_from(["history", "cell", "pattern"]))
        if target == "history":
            history = replace_fields(data, history, ())
        elif target == "cell":
            history = json.loads(json.dumps(history))
            row = data.draw(st.sampled_from(history["out"]))
            row[data.draw(st.integers(0, len(row) - 1))] = data.draw(JSON)
        else:
            pattern = replace_fields(data, pattern, ("crash",))
        hp, pp = write(tmp_path, "h.json", history), write(tmp_path, "p.json", pattern)
        contract_holds(main(["validate-history", "--history", hp, "--pattern", pp, "--anonymity"]), capsys)
