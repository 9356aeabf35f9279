"""Acceptance checks: one callable per exit criterion, shared by tests and CLI.

Each check returns a :class:`CriterionResult` with the measured numbers in its
detail string.  Expensive sweeps are memoised so the full battery runs in
seconds.  Tolerances are pinned here and nowhere else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import combinations, product

import numpy as np

from .circuit import (Circuit, GateOp, build_bv, build_pea, build_toffoli,
                      circuit_infidelity, op_core, op_unitary, simulate)
from .gates import (TEXTBOOK_CNOT, ErrorModel, PulseVariant, Sk1Params,
                    gate_infidelity, sk1)
from .orient import find_conjugate_pairs, trace_orientation
from .qmat import PauliString, distance_up_to_phase, pauli_matrix, rot, third_axis
from .sweep import (CANONICAL_WINDOW, SweepConfig, fit_slope, resolve_circuit,
                    run_sweep, strategy_circuit)

GRID = np.geomspace(*CANONICAL_WINDOW, 25)


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'}  {self.name}: {self.detail}"


@cache
def _sweep(circuit: str, variants: tuple[str, ...]):
    cfg = SweepConfig(circuit=circuit, variants=variants)
    return cfg, run_sweep(cfg)


def _series(records, series):
    return np.array([r.value(series) for r in records])


def _gate_curve(variant: PulseVariant) -> np.ndarray:
    """Gate infidelity of one CNOT variant at every point of ``GRID``."""
    gate = GateOp("CNOT", (0, 1), variant=variant)
    return np.array([gate_infidelity(TEXTBOOK_CNOT, op_core(gate, ErrorModel(float(e))))
                     for e in GRID])


def _gate_slope(variant: PulseVariant) -> float:
    return float(np.polyfit(np.log(GRID), np.log(_gate_curve(variant)), 1)[0])


# ---------------------------------------------------------------------------
# Criterion 1: the single-qubit worked example.  An error rotation that
# commutes with the measurement basis leaves the circuit infidelity at exactly 0;
# the orthogonal orientation costs sin^2(eps/2), identical to its gate infidelity.
# ---------------------------------------------------------------------------

def check_hadamard_orientation() -> CriterionResult:
    plus = np.array([1, 1], dtype=complex) / math.sqrt(2)
    worst = 0.0
    details = []
    for eps in (0.01, 0.1, 0.3):
        commuting = Circuit(
            width=1, ops=(GateOp("H", (0,)), GateOp("RX", (0,), angle=eps)),
            output_register=(0,), ideal_output=plus)
        orthogonal = Circuit(
            width=1, ops=(GateOp("H", (0,)), GateOp("RZ", (0,), angle=eps)),
            output_register=(0,), ideal_output=plus)
        dev_comm = circuit_infidelity(commuting)
        dev_orth = abs(circuit_infidelity(orthogonal) - math.sin(eps / 2) ** 2)
        worst = max(worst, dev_comm, dev_orth)
        details.append(f"eps={eps}: commuting dev={dev_comm:.2e}, orthogonal dev={dev_orth:.2e}")
    return CriterionResult("hadamard-orientation", worst < 1e-12, "; ".join(details))


# ---------------------------------------------------------------------------
# Criterion 2: the corrected-pulse residual theorem.  The sequence equals the
# ideal rotation times a rotation about the completing axis by beta * eps^2
# (beta = 4 pi^2 sin(phi) cos(phi)), with the leftover distance of third order.
#
# The originating formula also carries a theta^2 factor on that angle; it is
# inconsistent with its own beta definition (the theta dependence already
# lives inside phi), so the check asserts the consistent form and records the
# fit against the theta^2-scaled angle for comparison.
# ---------------------------------------------------------------------------

def check_sk1_residual() -> CriterionResult:
    theta = math.pi / 2
    params = Sk1Params.for_angle(theta)
    a1 = PauliString("XX")
    ideal = rot(a1, theta)
    eps_grid = np.geomspace(*CANONICAL_WINDOW, 7)
    details = []
    ok = True
    for a2_letters in ("YX", "ZX", "XY", "XZ"):
        a2 = PauliString(a2_letters)
        a3 = third_axis(a1, a2)
        axis = PauliString(a3.letters)
        sign = a3.phase.real
        dists, dists_t2 = [], []
        for eps in eps_grid:
            resid = sk1(a1, a2, theta, ErrorModel(eps)) @ ideal.conj().T
            angle = sign * params.beta * eps ** 2
            dists.append(distance_up_to_phase(resid, rot(axis, angle)))
            dists_t2.append(distance_up_to_phase(resid, rot(axis, angle * theta ** 2)))
        slope = np.polyfit(np.log(eps_grid), np.log(dists), 1)[0]
        slope_t2 = np.polyfit(np.log(eps_grid), np.log(dists_t2), 1)[0]
        # slope >= 3 up to fit wiggle; the wrong angle form sits at exactly 2
        ok = ok and slope >= 3.0 - 0.05
        details.append(f"axis {a3}: slope={slope:.3f} (theta^2-scaled form: {slope_t2:.2f})")
    return CriterionResult("sk1-residual", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# Criterion 3: all corrected variants share one gate fidelity -- their
# residuals are unitarily related, and the fidelity is invariant under that.
# ---------------------------------------------------------------------------

def check_fidelity_equality() -> CriterionResult:
    variants = (PulseVariant.SK1_XI, PulseVariant.SK1_YI,
                PulseVariant.SK1_IY, PulseVariant.SK1_MXI)
    worst = max(np.abs(_gate_curve(a) - _gate_curve(b)).max()
                for a, b in combinations(variants, 2))
    return CriterionResult("sk1-fidelity-equality", worst < 1e-12,
                           f"max pairwise gate-infidelity gap over the grid: {worst:.2e}")


# ---------------------------------------------------------------------------
# Criterion 4: gate-infidelity scaling exponents.
# ---------------------------------------------------------------------------

def check_gate_scaling() -> CriterionResult:
    slopes = {v.value: _gate_slope(v)
              for v in (PulseVariant.NAIVE, PulseVariant.SK1_XI, PulseVariant.SK1_YI,
                        PulseVariant.SK1_IY, PulseVariant.SK1_MXI)}
    ok = abs(slopes["naive"] - 2.0) <= 0.1 and all(
        abs(slopes[v] - 4.0) <= 0.1 for v in slopes if v != "naive")
    detail = ", ".join(f"{k}={v:.3f}" for k, v in slopes.items())
    return CriterionResult("gate-scaling", ok, detail)


# ---------------------------------------------------------------------------
# Criterion 5: orientation changes the Bernstein-Vazirani circuit error by
# orders of magnitude at identical gate fidelity.
# ---------------------------------------------------------------------------

def check_bv_orientation() -> CriterionResult:
    cfg, records = _sweep("bv", ("sk1_xi", "sk1_yi"))
    slope_xi = fit_slope(records, "circuit_infidelity:sk1_xi")
    slope_yi = fit_slope(records, "circuit_infidelity:sk1_yi")
    bv = resolve_circuit(cfg)
    err = ErrorModel(3e-3)
    at_xi = circuit_infidelity(strategy_circuit(bv, "sk1_xi"), err)
    at_yi = circuit_infidelity(strategy_circuit(bv, "sk1_yi"), err)
    ratio = at_yi / at_xi
    ok = (abs(slope_xi - 6.0) <= 0.3 and abs(slope_yi - 4.0) <= 0.3 and ratio >= 100)
    return CriterionResult(
        "bv-orientation", ok,
        f"slopes: control-X={slope_xi:.2f}, control-Y={slope_yi:.2f}; "
        f"suppression at eps=3e-3: {ratio:.0f}x")


# ---------------------------------------------------------------------------
# Criterion 6: conjugate-pair cancellation in the Toffoli decomposition beats
# the infidelity of its own constituent gate; naive gates compound instead.
# ---------------------------------------------------------------------------

def check_toffoli_pairing() -> CriterionResult:
    _, rec_pair = _sweep("toffoli", ("sk1_pair", "sk1_xi"))
    _, rec_naive = _sweep("toffoli", ("naive",))
    pair_circ = _series(rec_pair, "circuit_infidelity:sk1_pair")
    xi_gate = _series(rec_pair, "gate_infidelity:sk1_xi")
    naive_circ = _series(rec_naive, "circuit_infidelity:naive")
    naive_gate = _series(rec_naive, "gate_infidelity:naive")
    below = bool(np.all(pair_circ < xi_gate))
    above = bool(np.all(naive_circ > naive_gate))
    slope = fit_slope(rec_pair, "circuit_infidelity:sk1_pair")
    ok = below and above and abs(slope - 6.0) <= 0.5
    return CriterionResult(
        "toffoli-pairing", ok,
        f"paired slope={slope:.2f}; paired composite below gate at all points: {below}; "
        f"naive composite above gate at all points: {above}")


# ---------------------------------------------------------------------------
# Criterion 7: phase-estimation readout is deterministic at zero error, and
# pairing pushes the circuit error to sixth order.
# ---------------------------------------------------------------------------

def check_pea_determinism_pairing() -> CriterionResult:
    pea = build_pea()
    psi = simulate(pea, ErrorModel(0.0))
    probs = (np.abs(psi.reshape(4, 4)) ** 2).sum(axis=1)
    top = int(np.argmax(probs))
    golden = format(top, "02b")
    p_top = float(probs[top])
    _, records = _sweep("pea", ("sk1_pair", "sk1_xi"))
    pair = _series(records, "circuit_infidelity:sk1_pair")
    xi = _series(records, "circuit_infidelity:sk1_xi")
    slope = fit_slope(records, "circuit_infidelity:sk1_pair")
    beats = bool(np.all(pair < xi))
    ok = (p_top > 1 - 1e-10 and golden == pea.ideal_output
          and abs(slope - 6.0) <= 0.5 and beats)
    return CriterionResult(
        "pea-determinism-pairing", ok,
        f"readout {golden!r} with probability 1-{1 - p_top:.1e} (frozen: "
        f"{pea.ideal_output!r}); paired slope={slope:.2f}; "
        f"paired below control-X at all points: {beats}")


# ---------------------------------------------------------------------------
# Criterion 8: pass soundness against brute force.
# ---------------------------------------------------------------------------

def _pauli_basis(n: int) -> tuple[list[str], np.ndarray]:
    """Every n-qubit Pauli label, and a ``(4^n, 4^n)`` array of their matrices.

    Row k is the conjugated, flattened matrix of label k, so ``rows @ m.ravel()``
    gives ``tr(P_k^dag m)`` for every k in one product.
    """
    labels = ["".join(ls) for ls in product("IXYZ", repeat=n)]
    rows = np.array([pauli_matrix(PauliString(ls)).conj().ravel() for ls in labels])
    return labels, rows


def _brute_force_terminal(circuit: Circuit, op_index: int, pauli: PauliString,
                          basis: tuple[list[str], np.ndarray]) -> PauliString:
    """Terminal Pauli by explicit matrix conjugation and full basis projection.

    ``basis`` is :func:`_pauli_basis` of the circuit's width.
    """
    n = circuit.width
    m = pauli_matrix(pauli)
    ideal = ErrorModel(0.0)
    for op in circuit.ops[op_index + 1:]:
        g = op_unitary(op, n, ideal)
        m = g @ m @ g.conj().T
    labels, rows = basis
    coeffs = rows @ m.ravel() / 2 ** n
    best = int(np.argmax(np.abs(coeffs)))
    best_coeff = coeffs[best]
    phase = min((1 + 0j, -1 + 0j, 1j, -1j), key=lambda p: abs(best_coeff - p))
    if abs(best_coeff - phase) > 1e-10:
        raise AssertionError(f"brute-force result is not a signed Pauli: {best_coeff}")
    return PauliString(labels[best], phase)


def check_pass_soundness() -> CriterionResult:
    bv = build_bv("1111")
    basis = _pauli_basis(bv.width)
    mismatches = 0
    total = 0
    for op_index in range(len(bv.ops)):
        for qubit in range(bv.width):
            for axis in "XYZ":
                pauli = PauliString("I" * qubit + axis + "I" * (bv.width - qubit - 1))
                traced = trace_orientation(bv, op_index, pauli)
                brute = _brute_force_terminal(bv, op_index, pauli, basis)
                total += 1
                if traced != brute:
                    mismatches += 1
    toffoli_pairs = find_conjugate_pairs(build_toffoli())
    pea = build_pea()
    pea_pairs = find_conjugate_pairs(pea)
    paired_ids = {i for pair in pea_pairs for i in pair}
    all_paired = paired_ids == set(pea.cnot_indices)
    ok = mismatches == 0 and len(toffoli_pairs) == 3 and all_paired
    return CriterionResult(
        "pass-soundness", ok,
        f"trace vs brute force: {total - mismatches}/{total} agree; "
        f"toffoli pairs: {len(toffoli_pairs)} (want 3); "
        f"pea: {len(pea_pairs)} pairs covering all {len(pea.cnot_indices)} CNOTs: {all_paired}")


# ---------------------------------------------------------------------------
# Criterion 9: record the empirically fitted exponents where the narrative
# text understates the corrected-gate order.  Corrected-gate infidelity falls
# as eps^4, and the XI-only phase-estimation circuit follows that fourth-order
# scaling; these recorded fits are the authoritative resolution.
# ---------------------------------------------------------------------------

def check_recorded_exponents() -> CriterionResult:
    gate_slope = _gate_slope(PulseVariant.SK1_XI)
    _, records = _sweep("pea", ("sk1_pair", "sk1_xi"))
    xi_slope = fit_slope(records, "circuit_infidelity:sk1_xi")
    ok = abs(gate_slope - 4.0) <= 0.1 and abs(xi_slope - 4.0) <= 0.5
    return CriterionResult(
        "recorded-exponents", ok,
        f"recorded: corrected-gate infidelity exponent {gate_slope:.3f} (not 2), "
        f"XI-only phase-estimation circuit exponent {xi_slope:.3f}")


CRITERIA = (
    ("hadamard-orientation", check_hadamard_orientation),
    ("sk1-residual", check_sk1_residual),
    ("sk1-fidelity-equality", check_fidelity_equality),
    ("gate-scaling", check_gate_scaling),
    ("bv-orientation", check_bv_orientation),
    ("toffoli-pairing", check_toffoli_pairing),
    ("pea-determinism-pairing", check_pea_determinism_pairing),
    ("pass-soundness", check_pass_soundness),
    ("recorded-exponents", check_recorded_exponents),
)


def run_criterion(name: str) -> CriterionResult:
    for crit_name, func in CRITERIA:
        if crit_name == name:
            return func()
    raise ValueError(f"unknown criterion {name!r}; choose from "
                     f"{[n for n, _ in CRITERIA]}")


def run_all(names=None) -> list[CriterionResult]:
    selected = names or [n for n, _ in CRITERIA]
    return [run_criterion(n) for n in selected]
