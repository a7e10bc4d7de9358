"""Chaos CLI (`repro chaos`) and `--faults` plumbing on run/trace."""

import json

import pytest

from repro.apps import build_matmul
from repro.cli import main
from repro.config import ClusterSpec, ProcessorSpec, RunConfig
from repro.faults import load_plan
from repro.obs import Recorder, RunReport, event_to_dict
from repro.runtime import run_application


def test_chaos_matrix_matmul(capsys, tmp_path):
    out_json = tmp_path / "matrix.json"
    rc = main(
        [
            "chaos",
            "matmul",
            "-n",
            "32",
            "--slaves",
            "4",
            "--seed",
            "11",
            "--fault-seed",
            "5",
            "--plans",
            "message-light",
            "one-crash",
            "--json",
            str(out_json),
            "--reports",
            str(tmp_path / "reports"),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "identical" in out and "recovered" in out
    matrix = json.loads(out_json.read_text())
    assert matrix["ok"] is True
    outcomes = {
        (c["app"], c["plan"]): c["outcome"] for c in matrix["cells"]
    }
    assert outcomes[("matmul", "message-light")] == "identical"
    assert outcomes[("matmul", "one-crash")] == "recovered"
    report_files = sorted((tmp_path / "reports").glob("*.json"))
    assert report_files
    report = RunReport.load(report_files[0])
    assert report.name == "matmul"


def test_chaos_unknown_plan_rejected(capsys):
    rc = main(["chaos", "matmul", "-n", "32", "--plans", "kaboom"])
    assert rc == 2
    assert "'kaboom' is neither" in capsys.readouterr().out


def test_run_with_faults_flag(capsys):
    rc = main(
        [
            "run",
            "matmul",
            "-n",
            "32",
            "--slaves",
            "4",
            "--faults",
            "message-light",
            "--fault-seed",
            "5",
            "--speed",
            "1e6",
        ]
    )
    assert rc == 0
    assert "faults[message-light]:" in capsys.readouterr().out


def test_faults_none_reproduces_fault_free_trace_byte_for_byte():
    cfg = RunConfig(
        cluster=ClusterSpec(n_slaves=4, processor=ProcessorSpec(speed=1e6))
    )
    plan = build_matmul(n=32)

    def observed_run(faults):
        recorder = Recorder()
        res = run_application(plan, cfg, seed=11, faults=faults, recorder=recorder)
        return res, [event_to_dict(e) for e in recorder.log.events()]

    base_res, base_events = observed_run(None)
    none_res, none_events = observed_run(load_plan("none", seed=5))
    assert none_events == base_events
    assert none_res.elapsed == base_res.elapsed
    assert none_res.retransmits == 0 and none_res.dead_pids == ()


@pytest.mark.parametrize(
    "control,extra",
    [("stealing", ["--slaves", "4"]), ("hier", ["--slaves", "8", "--fanout", "2"])],
)
def test_bag_chaos_matrix_recovers_every_cell(control, extra, capsys, tmp_path):
    out_json = tmp_path / "matrix.json"
    rc = main(
        ["chaos", "matmul", "-n", "24", "--seed", "11", "--control", control]
        + extra
        + ["--json", str(out_json)]
    )
    assert rc == 0
    assert "FAILED" not in capsys.readouterr().out
    matrix = json.loads(out_json.read_text())
    assert matrix["ok"] is True and matrix["control"] == control
    cells = matrix["cells"]
    assert len(cells) == (4 if control == "hier" else 2)
    for cell in cells:
        assert cell["outcome"] == "recovered", cell
        assert cell["lost_units"] == 0 and cell["deaths"] >= 1
        assert cell["result_matches_baseline"]
    if control == "hier":
        plans = {c["plan"]: c for c in cells}
        assert plans["hier-first-submaster"]["reparents"] >= 1
        assert plans["hier-first-leaf"]["crash_pid"] == 0


@pytest.mark.parametrize(
    "app,strategy,why",
    [
        ("sor", "rate", "PARALLEL_MAP"),
        ("matmul", "diffusion", "no fault hooks"),
    ],
)
def test_run_refuses_before_calibrating(app, strategy, why, capsys, monkeypatch):
    """A plane's refusal prints ``run: ...`` and exits 2 without a
    traceback and before any simulated run."""
    import repro.strategies.bagplane as bagplane

    def no_run(self):
        raise AssertionError("a refused plan must not run")

    monkeypatch.setattr(bagplane.BagRun, "run", no_run)
    rc = main(
        ["run", app, "-n", "32", "--slaves", "4", "--strategy", strategy,
         "--faults", "one-crash"]
    )
    out = capsys.readouterr().out
    assert rc == 2
    assert out.startswith("run: ") and why in out
