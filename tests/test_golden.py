"""Sweep numerics and orientation plans against frozen outputs.

``tests/golden/<circuit>.csv`` is the output of ``errorient sweep --circuit
<circuit>`` with default options: 25 points over the canonical window and all
five strategies.  A change to the pulse cores, the simulator or the fits that
moves these numbers beyond rounding fails here.

``tests/golden/plans.txt`` holds one line per circuit of
``support.plan_circuits(PLAN_SEED, PLAN_COUNT)``: the :func:`plan_line` of its
:func:`plan_circuit`.  A change to either pass that moves any plan fails here.
"""

import csv
from pathlib import Path

import numpy as np
import pytest

from errorient.circuit import format_circuit
from errorient.orient import plan_circuit
from errorient.sweep import (CANONICAL_WINDOW, FIT_FLOOR, SWEEP_STRATEGIES, SweepConfig,
                             SweepRecord, fit_slope, run_sweep, series_names)
from support import plan_circuits

GOLDEN = Path(__file__).parent / "golden"

# Circuit infidelities are sums of squared residual amplitudes and keep their
# relative precision down to the fit floor.  The golden gate-level values were
# written with 1 - |tr|^2, which keeps only about 1e-15 absolute; the program
# now sums squares there too, so they are compared absolutely against the
# less precise frozen values.
CIRCUIT_RTOL = 1e-7
GATE_ATOL = 1e-14
SLOPE_TOL = 0.02


def _golden_records(circuit: str) -> list[SweepRecord]:
    with open(GOLDEN / f"{circuit}.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [SweepRecord(
        epsilon=float(row["epsilon"]),
        gate_infidelity={v: float(row[f"gate_infidelity_{v}"]) for v in SWEEP_STRATEGIES},
        circuit_infidelity={v: float(row[f"circuit_infidelity_{v}"])
                            for v in SWEEP_STRATEGIES})
        for row in rows]


@pytest.mark.parametrize("circuit", ("bv", "toffoli", "pea"))
def test_sweep_matches_golden(circuit):
    cfg = SweepConfig(circuit=circuit, variants=SWEEP_STRATEGIES,
                      eps_min=CANONICAL_WINDOW[0], eps_max=CANONICAL_WINDOW[1])
    golden = _golden_records(circuit)
    records = run_sweep(cfg)
    assert [r.epsilon for r in records] == [g.epsilon for g in golden]
    for series in series_names(cfg):
        got = np.array([r.value(series) for r in records])
        want = np.array([g.value(series) for g in golden])
        gate_level = series.startswith("gate_") or circuit == "toffoli"
        if gate_level:
            np.testing.assert_allclose(got, want, rtol=0, atol=GATE_ATOL, err_msg=series)
        else:
            above = want > FIT_FLOOR
            np.testing.assert_allclose(got[above], want[above], rtol=CIRCUIT_RTOL, atol=0,
                                       err_msg=series)
            np.testing.assert_allclose(got[~above], want[~above], rtol=0, atol=FIT_FLOOR,
                                       err_msg=series)
        assert abs(fit_slope(records, series) - fit_slope(golden, series)) <= SLOPE_TOL, series


PLAN_SEED = "golden-plans"
PLAN_COUNT = 240


def plan_line(plan) -> str:
    """``op_index:variant:rationale`` per CNOT, the variant without its ``sk1_``
    prefix and the rationale by its initial (m, p or d)."""
    return " ".join(f"{a.op_index}:{a.variant.value.removeprefix('sk1_')}:{a.rationale[0]}"
                    for a in plan.assignments)


def test_plans_match_golden():
    want = (GOLDEN / "plans.txt").read_text().splitlines()
    assert len(want) == PLAN_COUNT
    for k, circuit in enumerate(plan_circuits(PLAN_SEED, PLAN_COUNT)):
        got = plan_line(plan_circuit(circuit))
        assert got == want[k], f"circuit {k}:\n{format_circuit(circuit)}"
