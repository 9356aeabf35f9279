"""Command-line surface: sweep, plan, verify, config files, error reporting."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import errorient
from errorient.cli import main


def test_sweep_to_file(tmp_path, capsys):
    out = tmp_path / "bv.csv"
    code = main(["sweep", "--circuit", "bv", "--variants", "naive,sk1_xi",
                 "--eps-min", "1e-3", "--eps-max", "1e-2", "--points", "5",
                 "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr()
    assert "wrote 5 records" in captured.out
    assert "fit gate_infidelity:naive: slope=2.0" in captured.out
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 6
    assert lines[0].startswith("epsilon,gate_infidelity_naive")


def test_import_loads_no_process_pool():
    # every process that imports the CLI would pay for multiprocessing; only
    # run_sweep with workers > 1 may load it
    src = str(Path(errorient.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    probe = ("import errorient.cli, sys; print(sorted(m for m in sys.modules "
             "if m in ('concurrent.futures.process', 'multiprocessing')))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_sweep_to_stdout(capsys):
    code = main(["sweep", "--circuit", "bv", "--variants", "naive",
                 "--eps-min", "1e-3", "--eps-max", "1e-2", "--points", "3"])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("epsilon,")
    assert "fit gate_infidelity:naive" in captured.err


def test_sweep_config_file_with_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "circuit = bv\nvariants = naive\n"
        "eps_min = 1e-3\neps_max = 1e-2\npoints = 9\n"
    )
    out = tmp_path / "out.csv"
    code = main(["sweep", "--config", str(cfg), "--points", "4", "--out", str(out)])
    assert code == 0
    assert len(out.read_text().strip().split("\n")) == 5  # header + 4 (flag wins)


def test_sweep_rejects_bad_config(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense = 1\n")
    code = main(["sweep", "--config", str(cfg)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_sweep_rejects_degenerate_range(capsys):
    code = main(["sweep", "--circuit", "bv", "--eps-min", "1e-2",
                 "--eps-max", "1e-2"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_sweep_rejects_missing_circuit_file(capsys):
    code = main(["sweep", "--circuit", "/nonexistent/file.circ"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_custom_circuit_sweep(tmp_path, capsys):
    circ = tmp_path / "pair.circ"
    circ.write_text("qubits 2\ninput 00\noutput 0 1 = 00\n"
                    "cnot 0 1\nrz 1 0.4\ncnot 0 1\nrz 1 -0.4\n")
    code = main(["sweep", "--circuit", str(circ), "--variants", "sk1_pair",
                 "--points", "3", "--eps-min", "1e-3", "--eps-max", "1e-2"])
    assert code == 0


def test_plan_table_and_jsonl(tmp_path, capsys):
    out = tmp_path / "plan.jsonl"
    code = main(["plan", "--circuit", "toffoli", "--out", str(out)])
    assert code == 0
    table = capsys.readouterr().out
    assert "pair-cancel" in table
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 6
    rec = json.loads(lines[0])
    assert rec["variant"] == "sk1_xi"
    assert rec["rationale"] == "pair-cancel"


def test_plan_bv(capsys):
    code = main(["plan", "--circuit", "bv", "--bv-bits", "1010"])
    assert code == 0
    table = capsys.readouterr().out
    assert table.count("measurement-cancel") == 2


def test_verify_single_criterion(capsys):
    code = main(["verify", "hadamard-orientation"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS  hadamard-orientation")
    assert "all 1 criteria passed" in out


def test_verify_unknown_criterion(capsys):
    code = main(["verify", "not-a-criterion"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_missing_subcommand_raises_system_exit():
    with pytest.raises(SystemExit):
        main([])
