"""Sweep numerics against frozen CSVs of the three built-in circuits.

``tests/golden/<circuit>.csv`` is the output of ``errorient sweep --circuit
<circuit>`` with default options: 25 points over the canonical window and all
five strategies.  A change to the pulse cores, the simulator or the fits that
moves these numbers beyond rounding fails here.
"""

import csv
from pathlib import Path

import numpy as np
import pytest

from errorient.sweep import (CANONICAL_WINDOW, FIT_FLOOR, SWEEP_STRATEGIES, SweepConfig,
                             SweepRecord, fit_slope, run_sweep, series_names)

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
