"""Command-line surface: sweep, plan, verify, config files, error reporting."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import errorient
from errorient.cli import _settings, build_parser, main
from errorient.sweep import CANONICAL_WINDOW, SweepConfig

README = Path(__file__).parents[1] / "README.md"


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


def test_sweep_rejects_repeated_config_key(tmp_path, capsys):
    # last-wins would silently drop the first value; the hyphen spelling is the same key
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("points = 4\n# comment\neps-min = 1e-3\npoints = 9\n")
    assert main(["sweep", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: {cfg}:4: repeated config key 'points'\n"
    cfg.write_text("eps_min = 1e-3\neps-min = 2e-3\n")
    assert main(["sweep", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: {cfg}:2: repeated config key 'eps_min'\n"


# Numbers that int()/float() accept but the circuit format does not.
GUESSES = [("points", "1_2"), ("points", "\u0661\u0662"), ("points", "inf"),
           ("points", "nan"), ("points", "1e-3"), ("eps_min", "1_0e-4"),
           ("eps_max", "infinity"), ("workers", "2.0"),
           ("fit_window", "1e-3:inf"), ("fit_window", "1e-3"),
           ("fit_window", "1_0e-4:1e-2"), ("fit_window", "1e-2:1e-3")]


@pytest.mark.parametrize("key, value", GUESSES)
def test_flag_rejects_guess(key, value, capsys):
    flag = "--" + key.replace("_", "-")
    assert main(["sweep", f"{flag}={value}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} must ") and err.count("\n") == 1


@pytest.mark.parametrize("key, value", GUESSES)
def test_config_rejects_guess(key, value, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"circuit = bv\n{key} = {value}\n", encoding="utf-8")
    # the bad value is rejected even where a flag would override it
    assert main(["sweep", "--config", str(cfg), "--" + key.replace("_", "-"), "7"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}:2: {key} must ") and err.count("\n") == 1


def test_config_file_matches_flags(tmp_path, capsys):
    settings = {"circuit": "bv", "variants": "naive,sk1_yi", "eps_min": "2e-3",
                "eps_max": "0.02", "points": "6", "fit_window": "2e-3:2e-2",
                "workers": "1", "bv_bits": "1011"}
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
    assert main(["sweep", "--config", str(cfg)]) == 0
    from_config = capsys.readouterr()
    flags = [arg for k, v in settings.items() for arg in ("--" + k.replace("_", "-"), v)]
    assert main(["sweep"] + flags) == 0
    from_flags = capsys.readouterr()
    assert from_config.out == from_flags.out and from_config.err == from_flags.err
    assert from_flags.out.count("\n") == 7
    assert from_flags.err.count("fit ") == 4


def test_bare_sweep_uses_sweep_config_defaults():
    assert _settings(build_parser().parse_args(["sweep"])) == (
        SweepConfig(), CANONICAL_WINDOW, None)


def _readme_sweeps():
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True) for line in lines
            if line.startswith("errorient sweep")]


@pytest.mark.parametrize("argv", _readme_sweeps())
def test_readme_sweep_examples_parse(argv):
    # every documented command must pass the strict settings casts; no sweep runs
    cfg, window, _ = _settings(build_parser().parse_args(argv[1:]))
    assert isinstance(cfg, SweepConfig) and 0 < window[0] < window[1]


def test_readme_has_sweep_examples():
    assert len(_readme_sweeps()) >= 3


def test_readme_config_example_parses(tmp_path):
    (block,) = re.findall(r"```\n(# run\.cfg\n.*?)```", README.read_text(encoding="utf-8"), re.S)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(block)
    config, window, _ = _settings(build_parser().parse_args(["sweep", "--config", str(cfg)]))
    assert config == SweepConfig(circuit="toffoli", variants=("naive", "sk1_pair"), points=13)
    assert window == CANONICAL_WINDOW


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
