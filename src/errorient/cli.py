"""Command-line experiment harness.

Subcommands:

* ``sweep``  -- run an epsilon sweep over a benchmark (or custom) circuit,
  emit a CSV, and print log-log slope fits for every column;
* ``plan``   -- print the orientation plan for a circuit (table to stdout,
  JSON-lines mirror to ``--out``);
* ``verify`` -- run the acceptance battery, one pass/fail line per criterion.

Sweep settings come from flags or ``key = value`` config-file lines (flags
win), each cast once by ``_SETTINGS`` with the circuit parser's token rules;
``SweepConfig`` holds the defaults.  Failures exit 1 with one ``error:`` line.
"""

import argparse
import sys

from .acceptance import CRITERIA, run_all
from .circuit import _decimal, _index
from .orient import plan_circuit, plan_table
from .sweep import (CANONICAL_WINDOW, SWEEP_STRATEGIES, SweepConfig, emit_csv,
                    fit_slope, load_circuit, run_sweep, series_names, usable_points)


def _text(token: str, what: str) -> str:
    return token


def _variants(token: str, what: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in token.split(",") if v.strip())


def _window(token: str, what: str) -> tuple[float, float]:
    bounds = tuple(_decimal(part, what) for part in token.split(":"))
    if len(bounds) != 2 or not 0 < bounds[0] < bounds[1]:
        raise ValueError(f"{what} must be lo:hi with 0 < lo < hi, got {token!r}")
    return bounds


#: Each sweep setting's one cast, from a flag or config token, and its help.
_SETTINGS = {
    "circuit": (_text, "bv | toffoli | pea | path to a circuit file"),
    "variants": (_variants, "comma-separated subset of " + ",".join(SWEEP_STRATEGIES)),
    "eps_min": (_decimal, "smallest epsilon of the log-spaced grid"),
    "eps_max": (_decimal, "largest epsilon of the log-spaced grid"),
    "points": (_index, "number of grid points"),
    "out": (_text, "CSV destination (default: stdout)"),
    "fit_window": (_window, "slope-fit window as lo:hi (default 1e-3:1e-2)"),
    "workers": (_index, "parallel grid workers"),
    "bv_bits": (_text, "hidden string for the bv circuit"),
}


def _read_config(path: str) -> dict:
    """Each ``key = value`` line of a config file, cast; anything else is rejected."""
    settings: dict = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not (line := raw.split("#", 1)[0].strip()):
                continue
            where = f"{path}:{lineno}"
            key, eq, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if not eq or key not in _SETTINGS:
                raise ValueError(f"{where}: expected <sweep setting> = <value>, got {line!r}")
            if key in settings:
                raise ValueError(f"{where}: repeated config key {key!r}")
            settings[key] = _SETTINGS[key][0](value.strip(), f"{where}: {key}")
    return settings


def _settings(args) -> tuple[SweepConfig, tuple[float, float], str | None]:
    """The sweep config, fit window and CSV path: flags, then config file, then defaults."""
    settings = _read_config(args.config) if args.config else {}
    for key, (cast, _) in _SETTINGS.items():
        if (token := getattr(args, key)) is not None:
            settings[key] = cast(token, "--" + key.replace("_", "-"))
    window, out = settings.pop("fit_window", CANONICAL_WINDOW), settings.pop("out", None)
    return SweepConfig(**settings), window, out


def _cmd_sweep(args) -> int:
    cfg, window, out = _settings(args)
    records = run_sweep(cfg)
    emit_csv(records, cfg, out or sys.stdout)
    report = sys.stdout if out else sys.stderr
    if out:
        print(f"wrote {len(records)} records to {out}", file=report)
    for series in series_names(cfg):
        try:
            slope = fit_slope(records, series, window)
            used = usable_points(records, series, window)
            print(f"fit {series}: slope={slope:.4f} over "
                  f"[{window[0]:g}, {window[1]:g}] ({used} points)", file=report)
        except ValueError as exc:
            print(f"fit {series}: skipped ({exc})", file=report)
    return 0


def _cmd_plan(args) -> int:
    circuit = load_circuit(args.circuit, bv_bits=args.bv_bits or "1111")
    plan = plan_circuit(circuit)
    sys.stdout.write(plan_table(plan))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(plan.to_jsonl())
        print(f"wrote {len(plan.assignments)} assignments to {args.out}")
    return 0


def _cmd_verify(args) -> int:
    results = run_all(args.criteria or None)
    for result in results:
        print(result.line())
    failed = sum(1 for r in results if not r.passed)
    if failed:
        print(f"error: {failed} acceptance criterion(s) failed", file=sys.stderr)
        return 1
    print(f"all {len(results)} criteria passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="errorient",
        description="Error-orientation experiments with composite-pulse CNOTs.")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run an epsilon sweep and emit CSV")
    for key, (_, help_text) in _SETTINGS.items():
        sweep.add_argument("--" + key.replace("_", "-"), help=help_text)
    sweep.add_argument("--config", help="key=value config file; flags override")
    sweep.set_defaults(func=_cmd_sweep)

    plan = sub.add_parser("plan", help="print the orientation plan for a circuit")
    plan.add_argument("--circuit", required=True,
                      help="bv | toffoli | pea | path to a circuit file")
    plan.add_argument("--bv-bits", dest="bv_bits")
    plan.add_argument("--out", help="JSON-lines destination for the plan")
    plan.set_defaults(func=_cmd_plan)

    verify = sub.add_parser("verify", help="run the acceptance criteria")
    verify.add_argument("criteria", nargs="*",
                        help="criterion names to run (default: all); one of "
                             + ", ".join(name for name, _ in CRITERIA))
    verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # one-line diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
