"""Error tracing, measurement-orientation choice, and conjugate-pair detection."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from errorient.circuit import (Circuit, GateOp, build_bv, build_pea,
                               build_toffoli, circuit_infidelity, op_unitary,
                               simulate, with_variants)
from errorient.gates import ErrorModel, PulseVariant, cnot_variant
from errorient.orient import (Opaque, _choose_for_cnot, find_conjugate_pairs,
                              pair_cancel, plan_circuit, plan_table,
                              trace_orientation)
from errorient.qmat import (NotPauli, PauliString, conjugate_pauli,
                            distance_up_to_phase, rot)
from errorient.sweep import FIT_FLOOR
from support import circuits


def fit(xs, ys):
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def on_wire(width, qubit, axis):
    """The ``width``-qubit Pauli with ``axis`` on ``qubit`` and I elsewhere."""
    return PauliString("I" * qubit + axis + "I" * (width - qubit - 1))


# ---------------------------------------------------------------------------
# trace_orientation
# ---------------------------------------------------------------------------

def test_trace_x_through_hadamard():
    # X on a CNOT control, then H, then readout: terminal Z (harmless)
    c = Circuit(width=2,
                ops=(GateOp("CNOT", (0, 1)), GateOp("H", (0,))),
                output_register=(0,), ideal_output="0")
    got = trace_orientation(c, 0, PauliString("XI"))
    assert got == PauliString("ZI")


def test_trace_after_last_gate_unchanged():
    c = build_bv("1111")
    last = len(c.ops) - 1
    got = trace_orientation(c, last, PauliString("IIYII"))
    assert got == PauliString("IIYII")


def test_trace_stops_at_non_clifford_on_support():
    c = Circuit(width=1, ops=(GateOp("H", (0,)), GateOp("T", (0,))))
    assert trace_orientation(c, 0, PauliString("X")) is Opaque


def test_trace_skips_disjoint_non_clifford():
    # T on the other wire never touches the error's support
    c = Circuit(width=2, ops=(GateOp("H", (0,)), GateOp("T", (1,))))
    got = trace_orientation(c, 0, PauliString("ZI"))
    assert got == PauliString("ZI")


def test_trace_grows_support_through_cnot():
    # Y on the target picks up Z on the control
    c = Circuit(width=2, ops=(GateOp("H", (0,)), GateOp("CNOT", (0, 1))))
    got = trace_orientation(c, 0, PauliString("IY"))
    assert got == PauliString("ZY")


def test_trace_validates_index():
    # the op index must name an op, and the Pauli must span the register:
    # one wire short or one wire past it is rejected, not traced elsewhere
    c = build_bv("1111")
    with pytest.raises(ValueError):
        trace_orientation(c, len(c.ops), PauliString("XIIII"))
    with pytest.raises(ValueError):
        trace_orientation(c, 0, PauliString("IIII"))
    with pytest.raises(ValueError):
        trace_orientation(c, 0, PauliString("IIIIIX"))


def test_trace_matches_brute_force_on_bv():
    from errorient.acceptance import _brute_force_terminal, _pauli_basis
    c = build_bv("1101")
    basis = _pauli_basis(c.width)
    rng = np.random.default_rng(4)
    for _ in range(25):
        op_index = int(rng.integers(0, len(c.ops)))
        pauli = on_wire(c.width, int(rng.integers(0, c.width)), str(rng.choice(list("XYZ"))))
        assert (trace_orientation(c, op_index, pauli)
                == _brute_force_terminal(c, op_index, pauli, basis))


def _dense_trace(circuit, op_index, pauli, unitaries):
    """Brute-force trace: the full-register Pauli conjugated op by op through
    ``unitaries[i] = op_unitary(circuit.ops[i], ...)`` at epsilon = 0."""
    for i in range(op_index + 1, len(circuit.ops)):
        support = {k for k, ch in enumerate(pauli.letters) if ch != "I"}
        if not set(circuit.ops[i].qubits) & support:
            continue
        pauli = conjugate_pauli(unitaries[i], pauli)
        if pauli is NotPauli:
            return Opaque
    return pauli


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(circuits())
def test_trace_matches_dense_conjugation(circuit):
    # every (op index, wire, axis) placement, phases included; Opaque
    # results must agree too
    ideal = ErrorModel(0.0)
    unitaries = [op_unitary(op, circuit.width, ideal) for op in circuit.ops]
    for i in range(len(circuit.ops)):
        for q in range(circuit.width):
            for axis in "XYZ":
                pauli = on_wire(circuit.width, q, axis)
                want = _dense_trace(circuit, i, pauli, unitaries)
                got = trace_orientation(circuit, i, pauli)
                assert got is want if want is Opaque else got == want, (i, pauli)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(circuits(), st.text("IXYZ", min_size=6, max_size=6),
       st.sampled_from((1, -1, 1j, -1j)))
def test_trace_matches_dense_conjugation_for_any_pauli(circuit, letters, phase):
    # a signed Pauli on several wires at once, traced from every op
    ideal = ErrorModel(0.0)
    unitaries = [op_unitary(op, circuit.width, ideal) for op in circuit.ops]
    pauli = PauliString(letters[:circuit.width], phase)
    for i in range(len(circuit.ops)):
        want = _dense_trace(circuit, i, pauli, unitaries)
        got = trace_orientation(circuit, i, pauli)
        assert got is want if want is Opaque else got == want, i


# ---------------------------------------------------------------------------
# measurement orientation (plan_circuit on circuits without conjugate pairs)
# ---------------------------------------------------------------------------

def test_bv_chooses_control_x_everywhere():
    c = build_bv("1111")
    assert find_conjugate_pairs(c) == ()
    plan = plan_circuit(c)
    assert len(plan.assignments) == 4
    for a in plan.assignments:
        assert a.variant is PulseVariant.SK1_XI
        assert a.rationale == "measurement-cancel"


def test_no_cnots_empty_plan():
    c = Circuit(width=2, ops=(GateOp("H", (0,)),), output_register=(0,), ideal_output="0")
    assert plan_circuit(c).assignments == ()


def test_forced_control_y_terminal_not_diagonal():
    # the evaluator's reason for rejecting the Y orientation: its terminal
    # Pauli stays off-diagonal on a measured wire
    c = build_bv("1111")
    idx = c.cnot_indices[0]
    terminal = trace_orientation(c, idx, on_wire(c.width, c.ops[idx].control, "Y"))
    assert terminal.letters[0] == "Y"
    # and full simulation confirms the scaling penalty: slope 4, not 6
    eps = np.geomspace(1e-3, 1e-2, 7)
    xi = with_variants(c, {i: PulseVariant.SK1_XI for i in c.cnot_indices})
    yi = with_variants(c, {i: PulseVariant.SK1_YI for i in c.cnot_indices})
    ys_yi = [circuit_infidelity(yi, ErrorModel(float(e))) for e in eps]
    assert abs(fit(eps, ys_yi) - 4.0) < 0.3
    ys_xi = [circuit_infidelity(xi, ErrorModel(float(e))) for e in eps[3:]]
    assert abs(fit(eps[3:], ys_xi) - 6.0) < 0.3


def _cnot_then_h(prep, ideal_output):
    """``prep``, a CNOT 0->1, then H on wire 0, the only measured wire."""
    ops = tuple(prep) + (GateOp("CNOT", (0, 1)), GateOp("H", (0,)))
    return Circuit(width=2, ops=ops, output_register=(0,), ideal_output=ideal_output)


def test_vector_readout_rejects_diagonal_but_visible_terminal():
    # ideal output |+> on wire 0: the control-X residual ends as Z there, which
    # the I/Z rule for basis readouts would accept, yet it flips |+> to |->
    c = _cnot_then_h((), np.array([1, 1]) / math.sqrt(2))
    (a,) = plan_circuit(c).assignments
    assert (a.variant, a.rationale) == (PulseVariant.SK1_IY, "measurement-cancel")
    eps = np.geomspace(1e-3, 1e-2, 7)
    xi = with_variants(c, {0: PulseVariant.SK1_XI})
    assert abs(fit(eps, [circuit_infidelity(xi, ErrorModel(float(e))) for e in eps]) - 4) < 0.1
    # the target-Y residual stays on the discarded wire: no visible error at
    # all, down to rounding
    chosen = with_variants(c, plan_circuit(c).variant_map())
    assert max(circuit_infidelity(chosen, ErrorModel(float(e))) for e in eps) < 1e-28


def test_vector_readout_choice_is_sixth_order():
    # the ideal output (|0> - i|1>) rotated by H is an eigenvector of the
    # control-Y residual's terminal, and the circuit error is order eps^6
    prep = (GateOp("H", (1,)), GateOp("RX", (0,), angle=math.pi / 2))
    c = _cnot_then_h(prep, np.array([1 - 1j, 1 + 1j]) / 2)
    (a,) = plan_circuit(c).assignments
    assert (a.variant, a.rationale) == (PulseVariant.SK1_YI, "measurement-cancel")
    eps = np.geomspace(1e-3, 1e-2, 7)
    assert circuit_infidelity(c, ErrorModel(0.0)) < 1e-28
    chosen = with_variants(c, plan_circuit(c).variant_map())
    assert fit(eps, [circuit_infidelity(chosen, ErrorModel(float(e))) for e in eps]) >= 5.9


def test_opaque_paths_fall_back_to_default():
    c = Circuit(width=2,
                ops=(GateOp("CNOT", (0, 1)), GateOp("T", (0,)), GateOp("T", (1,))),
                output_register=(0, 1), ideal_output="00")
    plan = plan_circuit(c)
    assert plan.assignments[0].variant is PulseVariant.SK1_XI
    assert plan.assignments[0].rationale == "default"


def test_gate_level_circuit_uses_default():
    c = build_toffoli()
    assert all(_choose_for_cnot(c, i).rationale == "default" for i in c.cnot_indices)


# ---------------------------------------------------------------------------
# pair_cancel / find_conjugate_pairs
# ---------------------------------------------------------------------------

def test_toffoli_three_pairs():
    c = build_toffoli()
    pairs = find_conjugate_pairs(c)
    assert len(pairs) == 3
    plan = pair_cancel(c)
    assert len(plan.assignments) == 6
    assert all(a.rationale == "pair-cancel" for a in plan.assignments)
    firsts = {i for i, _ in pairs}
    for a in plan.assignments:
        expected = PulseVariant.SK1_XI if a.op_index in firsts else PulseVariant.SK1_MXI
        assert a.variant is expected


def test_pea_every_cnot_paired():
    c = build_pea()
    plan = pair_cancel(c)
    assert all(a.rationale == "pair-cancel" for a in plan.assignments)
    assert len(plan.assignments) == 26


def test_single_cnot_unpaired():
    c = Circuit(width=2, ops=(GateOp("CNOT", (0, 1)),),
                output_register=(0,), ideal_output="0")
    plan = pair_cancel(c)
    assert plan.assignments[0].variant is PulseVariant.SK1_XI
    assert plan.assignments[0].rationale == "default"


def test_pair_blocked_by_control_touch():
    ops = (GateOp("CNOT", (0, 1)), GateOp("H", (0,)), GateOp("CNOT", (0, 1)))
    c = Circuit(width=2, ops=ops)
    assert find_conjugate_pairs(c) == ()


def test_pair_allows_target_only_interior():
    ops = (GateOp("CNOT", (0, 1)), GateOp("RZ", (1,), angle=0.4),
           GateOp("CNOT", (0, 1)))
    c = Circuit(width=2, ops=ops)
    assert find_conjugate_pairs(c) == ((0, 2),)


def test_pair_requires_same_direction():
    ops = (GateOp("CNOT", (0, 1)), GateOp("CNOT", (1, 0)))
    c = Circuit(width=2, ops=ops)
    # the second CNOT touches wire 0 so it blocks, and directions differ anyway
    assert find_conjugate_pairs(c) == ()


def test_nested_pairs_resolve():
    ops = (GateOp("CNOT", (0, 2)), GateOp("CNOT", (1, 2)),
           GateOp("RZ", (2,), angle=0.3), GateOp("CNOT", (1, 2)),
           GateOp("CNOT", (0, 2)))
    c = Circuit(width=3, ops=ops)
    assert find_conjugate_pairs(c) == ((0, 4), (1, 3))


def test_plans_are_total():
    for circuit in (build_bv("1111"), build_toffoli(), build_pea()):
        for plan in (pair_cancel(circuit), plan_circuit(circuit)):
            assert sorted(a.op_index for a in plan.assignments) == list(circuit.cnot_indices)


# ---------------------------------------------------------------------------
# pair-cancel soundness oracle
# ---------------------------------------------------------------------------

def test_isolated_pair_cancels_to_third_order():
    # composite of the two variant CNOTs around a target-only unitary matches
    # the ideal composite up to an error fitting slope >= 3
    interior = rot(PauliString("IZ"), 0.7)
    from errorient.gates import TEXTBOOK_CNOT
    ideal = TEXTBOOK_CNOT @ interior @ TEXTBOOK_CNOT
    eps_grid = np.geomspace(1e-3, 1e-2, 7)
    dists = []
    for eps in eps_grid:
        err = ErrorModel(float(eps))
        first = cnot_variant(PulseVariant.SK1_XI, 0, 1, err, 2)
        second = cnot_variant(PulseVariant.SK1_MXI, 0, 1, err, 2)
        dists.append(distance_up_to_phase(second @ interior @ first, ideal))
    assert fit(eps_grid, dists) >= 2.95


def test_unpaired_variants_do_not_cancel():
    # same-sign residuals add instead of canceling: error is second order
    interior = rot(PauliString("IZ"), 0.7)
    from errorient.gates import TEXTBOOK_CNOT
    ideal = TEXTBOOK_CNOT @ interior @ TEXTBOOK_CNOT
    eps_grid = np.geomspace(1e-3, 1e-2, 7)
    dists = []
    for eps in eps_grid:
        err = ErrorModel(float(eps))
        gate = cnot_variant(PulseVariant.SK1_XI, 0, 1, err, 2)
        dists.append(distance_up_to_phase(gate @ interior @ gate, ideal))
    assert abs(fit(eps_grid, dists) - 2.0) < 0.1


# ---------------------------------------------------------------------------
# label soundness by simulation
# ---------------------------------------------------------------------------

E0 = ErrorModel(0.0)
_SELF_INVERSE = ("H", "X", "Z", "GAMMA", "CNOT")


def _inverse(op):
    """An op undoing ``op`` at epsilon = 0 (raw pulses undo corrected ones)."""
    if op.kind in _SELF_INVERSE:
        return GateOp(op.kind, op.qubits)
    if op.kind in ("T", "TDG"):
        return GateOp("TDG" if op.kind == "T" else "T", op.qubits)
    return GateOp(op.kind, op.qubits, angle=-op.angle)


@st.composite
def basis_readout_circuits(draw):
    """Compute-uncompute circuits read out as a basis label on some wires."""
    base = draw(circuits())
    label = draw(st.text("01", min_size=base.width, max_size=base.width))
    reg = tuple(sorted(draw(st.sets(st.integers(0, base.width - 1), min_size=1))))
    ops = base.ops + tuple(_inverse(op) for op in reversed(base.ops))
    return Circuit(width=base.width, ops=ops, input_state=label, output_register=reg,
                   ideal_output="".join(label[q] for q in reg))


@st.composite
def vector_readout_circuits(draw):
    """Circuits read out on the full register against their ideal final state.

    Half of them wrap a generated circuit in a CNOT pair controlled by a new
    wire 0 prepared by H, a conjugate pair with a nontrivial interior.
    """
    c = draw(circuits(min_width=2, max_width=5))
    if draw(st.booleans()):
        target = draw(st.integers(1, c.width))
        shifted = tuple(replace(op, qubits=tuple(q + 1 for q in op.qubits)) for op in c.ops)
        pair = GateOp("CNOT", (0, target))
        c = Circuit(width=c.width + 1, ops=(GateOp("H", (0,)), pair) + shifted + (pair,))
    return replace(c, output_register=tuple(range(c.width)), ideal_output=simulate(c))


def _infidelity_with_noisy(circuit, noisy, err):
    """Circuit infidelity with only the ops at indices ``noisy`` at ``err``.

    Ideal and noisy segments are chained through :func:`simulate`, each
    starting from the state the previous one left.
    """
    state, start = circuit.input_vector(), 0
    for i in sorted(noisy):
        state = simulate(Circuit(circuit.width, circuit.ops[start:i], state), E0)
        state = simulate(Circuit(circuit.width, circuit.ops[i:i + 1], state), err)
        start = i + 1
    final = Circuit(circuit.width, circuit.ops[start:], state,
                    circuit.output_register, circuit.ideal_output)
    return circuit_infidelity(final, E0)


def _assert_labels_sound(circuit):
    # a labelled CNOT, or both CNOTs of a labelled pair, alone at epsilon
    # must cost the readout order eps^6
    plan = plan_circuit(circuit)
    chosen = with_variants(circuit, plan.variant_map())
    pair_of = {i: pair for pair in find_conjugate_pairs(circuit) for i in pair}
    cases = {(a.op_index,) if a.rationale == "measurement-cancel" else pair_of[a.op_index]
             for a in plan.assignments if a.rationale != "default"}
    eps = np.geomspace(1e-2, 1e-1, 6)
    for noisy in cases:
        vals = np.array([_infidelity_with_noisy(chosen, noisy, ErrorModel(float(e)))
                         for e in eps])
        kept = vals > FIT_FLOOR
        if kept.sum() >= 3:
            assert fit(eps[kept], vals[kept]) >= 5.5, (noisy, vals)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(basis_readout_circuits())
def test_labels_sound_for_basis_readouts(circuit):
    _assert_labels_sound(circuit)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(vector_readout_circuits())
def test_labels_sound_for_vector_readouts(circuit):
    _assert_labels_sound(circuit)


# ---------------------------------------------------------------------------
# composed pass and plan output
# ---------------------------------------------------------------------------

def test_plan_circuit_pairs_first():
    c = build_toffoli()
    plan = plan_circuit(c)
    assert all(a.rationale == "pair-cancel" for a in plan.assignments)
    bv_plan = plan_circuit(build_bv("1111"))
    assert all(a.rationale == "measurement-cancel" for a in bv_plan.assignments)


def test_apply_plan_sets_variants():
    c = build_toffoli()
    plan = pair_cancel(c)
    assigned = with_variants(c, plan.variant_map())
    for a in plan.assignments:
        assert assigned.ops[a.op_index].variant is a.variant


def test_plan_serialization():
    import json
    plan = plan_circuit(build_toffoli())
    lines = plan.to_jsonl().strip().split("\n")
    assert len(lines) == 6
    rec = json.loads(lines[0])
    assert set(rec) == {"op_index", "control", "target", "variant", "rationale"}
    table = plan_table(plan)
    assert "pair-cancel" in table and "sk1_mxi" in table
