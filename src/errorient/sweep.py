"""Epsilon-sweep experiments: grids, records, CSV emission, and slope fits.

A sweep evaluates, per grid point, the gate infidelity of the underlying CNOT
realisation and the circuit-level infidelity of a benchmark circuit for each
requested variant strategy.  The Toffoli experiment reports a composite gate
infidelity in the circuit column instead, since it is evaluated as a gate.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .circuit import (Circuit, GateOp, build_bv, build_pea, build_toffoli,
                      circuit_infidelity, circuit_unitary, ideal_toffoli, op_core,
                      parse_circuit, with_variants)
from .gates import EPS_LIMIT, TEXTBOOK_CNOT, ErrorModel, PulseVariant, gate_infidelity
from .orient import pair_cancel

log = logging.getLogger(__name__)

#: Below this infidelity double precision is exhausted for trace-based values;
#: such points are excluded from slope fits.
FIT_FLOOR = 1e-14

#: Canonical fitting window for the asymptotic scaling exponents.
CANONICAL_WINDOW = (1e-3, 1e-2)

#: Strategies available to sweeps.  Uniform variants assign one pulse sequence
#: to every CNOT; "sk1_pair" applies the conjugate-pair cancellation plan.
SWEEP_STRATEGIES = ("naive", "sk1_xi", "sk1_yi", "sk1_iy", "sk1_pair")

BUILTIN_CIRCUITS = ("bv", "toffoli", "pea")


@dataclass(frozen=True)
class SweepConfig:
    """Grid and strategy selection for one sweep run; the defaults are the CLI's."""

    circuit: str = "bv"
    variants: tuple[str, ...] = SWEEP_STRATEGIES
    eps_min: float = CANONICAL_WINDOW[0]
    eps_max: float = CANONICAL_WINDOW[1]
    points: int = 25
    bv_bits: str = "1111"
    workers: int = 1

    def __post_init__(self):
        if not 0 < self.eps_min < self.eps_max < EPS_LIMIT:
            raise ValueError(
                f"need 0 < eps_min < eps_max < {EPS_LIMIT}, got "
                f"[{self.eps_min}, {self.eps_max}]"
            )
        if self.points < 2:
            raise ValueError(f"need at least 2 grid points, got {self.points}")
        object.__setattr__(self, "variants", tuple(self.variants))
        if not self.variants:
            raise ValueError("at least one variant is required")
        for v in self.variants:
            if v not in SWEEP_STRATEGIES:
                raise ValueError(f"unknown variant {v!r}; choose from {SWEEP_STRATEGIES}")
        if len(set(self.variants)) != len(self.variants):
            raise ValueError("duplicate variants in config")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    def grid(self) -> np.ndarray:
        return np.geomspace(self.eps_min, self.eps_max, self.points)


@dataclass
class SweepRecord:
    """One grid point: epsilon plus per-strategy gate and circuit infidelities."""

    epsilon: float
    gate_infidelity: dict[str, float]
    circuit_infidelity: dict[str, float]

    def value(self, series: str) -> float:
        kind, _, variant = series.partition(":")
        table = {"gate_infidelity": self.gate_infidelity,
                 "circuit_infidelity": self.circuit_infidelity}.get(kind)
        if table is None or variant not in table:
            raise KeyError(f"unknown series {series!r}")
        return table[variant]


def series_names(cfg: SweepConfig) -> list[str]:
    """Column series in emission order: gate columns first, then circuit columns."""
    return ([f"gate_infidelity:{v}" for v in cfg.variants]
            + [f"circuit_infidelity:{v}" for v in cfg.variants])


def load_circuit(name: str, bv_bits: str = "1111") -> Circuit:
    """Builder lookup for the named benchmark, or parse a custom circuit file."""
    if name == "bv":
        return build_bv(bv_bits)
    if name == "toffoli":
        return build_toffoli()
    if name == "pea":
        return build_pea()
    path = Path(name)
    if not path.is_file():
        raise ValueError(f"circuit must be one of {BUILTIN_CIRCUITS} or an existing file, "
                         f"got {name!r}")
    return parse_circuit(path.read_text())


def resolve_circuit(cfg: SweepConfig) -> Circuit:
    """Load the configured circuit and check it can be scored by the sweep."""
    circuit = load_circuit(cfg.circuit, cfg.bv_bits)
    if cfg.circuit != "toffoli" and circuit.ideal_output is None:
        raise ValueError(f"invalid circuit {cfg.circuit!r}: no ideal output defined")
    return circuit


def strategy_circuit(circuit: Circuit, strategy: str) -> Circuit:
    """The circuit with every CNOT's pulse variant chosen by a sweep strategy."""
    if strategy == "sk1_pair":
        return with_variants(circuit, pair_cancel(circuit).variant_map())
    variant = PulseVariant(strategy)
    return with_variants(circuit, {i: variant for i in circuit.cnot_indices})


def _gate_op(strategy: str) -> GateOp:
    """The two-qubit CNOT whose local core is the strategy's gate column."""
    # The pair strategy is built from the control-X sequence and its adjoint,
    # which share one gate infidelity.
    variant = PulseVariant.SK1_XI if strategy == "sk1_pair" else PulseVariant(strategy)
    return GateOp("CNOT", (0, 1), variant=variant)


def _evaluate_point(args) -> SweepRecord:
    assigned, is_gate_level, epsilon = args
    err = ErrorModel(epsilon)
    gate_vals: dict[str, float] = {}
    circ_vals: dict[str, float] = {}
    for strategy, (gate, circuit) in assigned.items():
        gate_vals[strategy] = gate_infidelity(TEXTBOOK_CNOT, op_core(gate, err))
        if is_gate_level:
            circ_vals[strategy] = gate_infidelity(ideal_toffoli(),
                                                  circuit_unitary(circuit, err))
        else:
            circ_vals[strategy] = circuit_infidelity(circuit, err)
    return SweepRecord(epsilon=float(epsilon), gate_infidelity=gate_vals,
                       circuit_infidelity=circ_vals)


def run_sweep(cfg: SweepConfig) -> list[SweepRecord]:
    """Evaluate every grid point; deterministic given the config.

    Each strategy's circuit is planned, and its gate-column CNOT built,
    once, since neither depends on epsilon.  Grid points are independent;
    with ``workers > 1`` they are evaluated by a process pool, whose ``map``
    returns them in grid order, so the output does not depend on scheduling.
    """
    circuit = resolve_circuit(cfg)
    is_gate_level = cfg.circuit == "toffoli"
    assigned = {s: (_gate_op(s), strategy_circuit(circuit, s)) for s in cfg.variants}
    tasks = [(assigned, is_gate_level, eps) for eps in cfg.grid()]
    if cfg.workers > 1:
        # Imported here: it loads multiprocessing, a cost every process that
        # imports the package would otherwise pay even when it never pools.
        from concurrent.futures import ProcessPoolExecutor

        # One chunk per worker, so each worker unpickles the strategy
        # circuits once rather than once per grid point.
        chunksize = math.ceil(len(tasks) / cfg.workers)
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            return list(pool.map(_evaluate_point, tasks, chunksize=chunksize))
    return [_evaluate_point(t) for t in tasks]


def _fit_points(records: list[SweepRecord], series: str, window: tuple[float, float]):
    """In-window ``(epsilon, value)`` pairs above ``FIT_FLOOR``, and how many fell below."""
    lo, hi = window
    points = [(r.epsilon, r.value(series)) for r in records if lo <= r.epsilon <= hi]
    kept = [(e, v) for e, v in points if v > FIT_FLOOR]
    return kept, len(points) - len(kept)


def fit_slope(records: list[SweepRecord], series: str,
              window: tuple[float, float] = CANONICAL_WINDOW) -> float:
    """Least-squares slope of log(infidelity) against log(epsilon) in the window.

    Points with infidelity at or below ``FIT_FLOOR`` are excluded (their
    values are dominated by double-precision noise); at least 3 usable points
    are required.
    """
    points, dropped = _fit_points(records, series, window)
    if dropped:
        log.info("fit_slope(%s): excluded %d sub-floor point(s)", series, dropped)
    if len(points) < 3:
        raise ValueError(f"too few usable points for {series!r}: "
                         f"{len(points)} in window [{window[0]}, {window[1]}]")
    log_eps, log_vals = np.log(points).T
    return float(np.polyfit(log_eps, log_vals, 1)[0])


def usable_points(records: list[SweepRecord], series: str,
                  window: tuple[float, float] = CANONICAL_WINDOW) -> int:
    """Number of points :func:`fit_slope` fits for the series in the window."""
    return len(_fit_points(records, series, window)[0])


def _column_name(series: str) -> str:
    kind, _, variant = series.partition(":")
    return f"{kind}_{variant}"


def format_csv(records: list[SweepRecord], cfg: SweepConfig) -> str:
    """CSV text: epsilon first, then gate columns, then circuit columns.

    Values carry 17 significant digits so a round-trip parse is bit-exact.
    """
    if not records:
        raise ValueError("no records to emit")
    names = series_names(cfg)
    lines = [",".join(["epsilon"] + [_column_name(s) for s in names])]
    for rec in records:
        row = [f"{rec.epsilon:.17g}"] + [f"{rec.value(s):.17g}" for s in names]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def emit_csv(records: list[SweepRecord], cfg: SweepConfig, destination) -> None:
    """Write the sweep CSV to a path or file-like destination."""
    text = format_csv(records, cfg)
    if hasattr(destination, "write"):
        destination.write(text)
        return
    Path(destination).write_text(text)
