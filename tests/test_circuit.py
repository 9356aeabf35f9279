"""Circuit IR, simulator, infidelity, benchmark builders, and serialization."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from errorient.circuit import (GAMMA, Circuit, GateOp, _controlled_rot_ops,
                               build_bv, build_pea, build_toffoli,
                               circuit_infidelity, circuit_unitary,
                               format_circuit, ideal_toffoli, op_core,
                               op_unitary, parse_circuit, simulate,
                               with_variants)
from errorient.gates import (TEXTBOOK_CNOT, ErrorModel, PulseVariant,
                             gate_infidelity)
from errorient.orient import pair_cancel, plan_circuit
from errorient.qmat import PauliString, distance_up_to_phase, pauli_matrix, rot
from support import circuits

E0 = ErrorModel(0.0)


# ---------------------------------------------------------------------------
# GateOp / Circuit validation
# ---------------------------------------------------------------------------

def test_gateop_validation():
    with pytest.raises(ValueError):
        GateOp("NOPE", (0,))
    with pytest.raises(ValueError):
        GateOp("H", (0, 1))
    with pytest.raises(ValueError):
        GateOp("RZ", (0,))               # missing angle
    with pytest.raises(ValueError):
        GateOp("H", (0,), angle=0.3)     # stray angle
    with pytest.raises(ValueError):
        GateOp("CNOT", (1, 1))
    with pytest.raises(ValueError):
        GateOp("H", (0,), variant=PulseVariant.SK1_XI)
    with pytest.raises(ValueError, match="unknown gate kind"):
        GateOp("XX", (0, 1), angle=1.0)  # raw pulses are not ops
    with pytest.raises(ValueError, match="nonnegative"):
        GateOp("H", (-1,))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            GateOp("RX", (0,), angle=bad)


def test_cnot_defaults_to_naive():
    op = GateOp("CNOT", (0, 1))
    assert op.variant is PulseVariant.NAIVE
    assert op.control == 0 and op.target == 1


def test_circuit_validation():
    with pytest.raises(ValueError):
        Circuit(width=7, ops=())
    with pytest.raises(ValueError):
        Circuit(width=2, ops=(GateOp("H", (2,)),))
    with pytest.raises(ValueError):
        Circuit(width=2, ops=(), output_register=(0, 0))
    with pytest.raises(ValueError):
        Circuit(width=2, ops=(), output_register=(0,), ideal_output="01")
    with pytest.raises(ValueError):
        Circuit(width=1, ops=(), output_register=(0,),
                ideal_output=np.array([1.0, 1.0]))  # unnormalized
    with pytest.raises(ValueError):
        Circuit(width=1, ops=(), ideal_output="0")  # no register


@pytest.mark.parametrize("field", ["input_state", "ideal_output"])
def test_circuit_rejects_non_finite_states(field):
    # a NaN passes a norm tolerance test, since every comparison with it is false
    with pytest.raises(ValueError, match="non-finite"):
        Circuit(width=1, ops=(), output_register=(0,), **{field: [math.nan, 0]})


def test_with_variants():
    c = build_bv("1111")
    idx = c.cnot_indices[0]
    c2 = with_variants(c, {idx: PulseVariant.SK1_XI})
    assert c2.ops[idx].variant is PulseVariant.SK1_XI
    assert c.ops[idx].variant is PulseVariant.NAIVE
    with pytest.raises(ValueError):
        with_variants(c, {0: PulseVariant.SK1_XI})  # op 0 is an H


# ---------------------------------------------------------------------------
# simulate / infidelity basics
# ---------------------------------------------------------------------------

def test_simulate_empty_circuit():
    c = Circuit(width=2, ops=(), input_state="10")
    want = np.zeros(4, dtype=complex)
    want[0b10] = 1
    np.testing.assert_allclose(simulate(c), want)


def test_simulate_single_hadamard():
    c = Circuit(width=1, ops=(GateOp("H", (0,)),))
    np.testing.assert_allclose(simulate(c), np.array([1, 1]) / math.sqrt(2))


def test_norm_preserved():
    rng = np.random.default_rng(2)
    for builder in (lambda: build_bv("1011"), build_toffoli, build_pea):
        c = builder()
        for eps in rng.uniform(-0.2, 0.2, size=5):
            psi = simulate(c, ErrorModel(float(eps)))
            assert abs(np.linalg.norm(psi) - 1) < 1e-12


_EVERY_KIND = parse_circuit("""qubits 5
input 01101
h 0
x 1
z 2
t 3
tdg 4
gamma 0
rx 1 0.7
ry 2 -2.1
rz 3 4.4
cnot 3 0
cnot 1 4 sk1_xi
cnot 4 2 sk1_mxi
cnot 0 3 sk1_yi
cnot 2 1 sk1_iy
""")


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.booleans().flatmap(
    lambda vector: circuits(min_width=1, clifford_t=False, vector_input=vector)))
@example(_EVERY_KIND)
def test_simulator_matches_dense_product(circuit):
    # reference: the ordered product of full-register op matrices
    for err in (E0, ErrorModel(0.03), ErrorModel(-0.3)):
        dense = np.eye(2 ** circuit.width, dtype=complex)
        for op in circuit.ops:
            dense = op_unitary(op, circuit.width, err) @ dense
        np.testing.assert_allclose(circuit_unitary(circuit, err), dense, rtol=0, atol=1e-12)
        np.testing.assert_allclose(simulate(circuit, err), dense @ circuit.input_vector(),
                                   rtol=0, atol=1e-12)


def test_hadamard_worked_example():
    plus = np.array([1, 1], dtype=complex) / math.sqrt(2)
    for eps in (0.01, 0.1, 0.3):
        commuting = Circuit(width=1,
                            ops=(GateOp("H", (0,)), GateOp("RX", (0,), angle=eps)),
                            output_register=(0,), ideal_output=plus)
        orthogonal = Circuit(width=1,
                             ops=(GateOp("H", (0,)), GateOp("RZ", (0,), angle=eps)),
                             output_register=(0,), ideal_output=plus)
        assert circuit_infidelity(commuting) < 1e-12
        assert abs(circuit_infidelity(orthogonal) - math.sin(eps / 2) ** 2) < 1e-12


def test_fidelity_requires_ideal_output():
    c = Circuit(width=1, ops=())
    with pytest.raises(ValueError):
        circuit_infidelity(c)


# ---------------------------------------------------------------------------
# gamma gate
# ---------------------------------------------------------------------------

def test_gamma_maps_z_to_y():
    Z = pauli_matrix(PauliString("Z"))
    Y = pauli_matrix(PauliString("Y"))
    np.testing.assert_allclose(GAMMA @ Z @ GAMMA.conj().T, Y, atol=1e-14)
    np.testing.assert_allclose(GAMMA @ GAMMA, np.eye(2), atol=1e-14)  # self-inverse


# ---------------------------------------------------------------------------
# Bernstein-Vazirani
# ---------------------------------------------------------------------------

def test_bv_structure_full_mask():
    c = build_bv("1111")
    cnots = [c.ops[i] for i in c.cnot_indices]
    assert len(cnots) == 4
    assert [(op.control, op.target) for op in cnots] == [(k, 4) for k in range(4)]
    assert c.output_register == (0, 1, 2, 3)
    assert c.ideal_output == "1111"


def test_bv_reads_hidden_string_exactly():
    c = build_bv("1111")
    assert circuit_infidelity(c, E0) < 1e-12


def test_bv_empty_mask_immune_to_error():
    c = build_bv("0000")
    assert len(c.cnot_indices) == 0
    for eps in (0.0, 0.1, 0.3):
        assert circuit_infidelity(c, ErrorModel(eps)) < 1e-12


def test_bv_single_bit():
    c = build_bv("1000")
    assert len(c.cnot_indices) == 1
    # oracle: exact simulation reads the hidden string on the data register
    psi = simulate(c, E0)
    probs = (np.abs(psi.reshape(16, 2)) ** 2).sum(axis=1)
    assert np.argmax(probs) == int("1000", 2)
    assert probs[int("1000", 2)] == pytest.approx(1.0, abs=1e-12)


def test_bv_validates_mask():
    with pytest.raises(ValueError):
        build_bv("212")
    with pytest.raises(ValueError):
        build_bv("10101")


# ---------------------------------------------------------------------------
# Toffoli
# ---------------------------------------------------------------------------

def test_toffoli_exact_at_zero_error():
    c = build_toffoli()
    assert len(c.cnot_indices) == 6
    assert gate_infidelity(ideal_toffoli(), circuit_unitary(c, E0)) < 1e-12


def test_toffoli_naive_worse_than_cnot():
    err = ErrorModel(0.05)
    c = build_toffoli()
    toff = gate_infidelity(ideal_toffoli(), circuit_unitary(c, err))
    cnot = gate_infidelity(TEXTBOOK_CNOT,
                           op_unitary(GateOp("CNOT", (0, 1)), 2, err))
    assert toff > cnot


def test_toffoli_paired_beats_cnot():
    c = build_toffoli()
    paired = with_variants(c, pair_cancel(c).variant_map())
    xi_gate = GateOp("CNOT", (0, 1), variant=PulseVariant.SK1_XI)
    for eps in (1e-3, 3e-3, 1e-2):
        err = ErrorModel(eps)
        toff = gate_infidelity(ideal_toffoli(), circuit_unitary(paired, err))
        cnot = gate_infidelity(TEXTBOOK_CNOT, op_unitary(xi_gate, 2, err))
        assert toff < cnot


# ---------------------------------------------------------------------------
# Controlled two-qubit rotations
# ---------------------------------------------------------------------------

def _fragment(axis, theta):
    """Three-qubit fragment: qubit 0 controls rot(axis, theta) on qubits 1, 2."""
    return Circuit(width=3, ops=tuple(_controlled_rot_ops(axis, theta, 0, 1, 2)))


def _controlled(u4):
    dim = u4.shape[0]
    out = np.zeros((2 * dim, 2 * dim), dtype=complex)
    out[:dim, :dim] = np.eye(dim)
    out[dim:, dim:] = u4
    return out


@pytest.mark.parametrize("axis", ["XX", "YY"])
def test_controlled_rot_matches_direct_construction(axis):
    rng = np.random.default_rng(13)
    for theta in rng.uniform(-2 * math.pi, 2 * math.pi, size=20):
        frag = _fragment(axis, float(theta))
        got = circuit_unitary(frag, E0)
        oracle = _controlled(rot(PauliString(axis), float(theta)))
        assert distance_up_to_phase(got, oracle) < 1e-10


def test_controlled_rot_zero_angle_is_identity():
    frag = _fragment("XX", 0.0)
    got = circuit_unitary(frag, E0)
    assert distance_up_to_phase(got, np.eye(8, dtype=complex)) < 1e-12


def test_controlled_rot_pi_explicit():
    frag = _fragment("XX", math.pi)
    got = circuit_unitary(frag, E0)
    oracle = _controlled(rot(PauliString("XX"), math.pi))
    assert distance_up_to_phase(got, oracle) < 1e-10


# ---------------------------------------------------------------------------
# Phase estimation
# ---------------------------------------------------------------------------

def test_pea_deterministic_readout():
    c = build_pea()
    psi = simulate(c, E0)
    probs = (np.abs(psi.reshape(4, 4)) ** 2).sum(axis=1)
    top = int(np.argmax(probs))
    # golden value derived from the exact simulation and frozen in the builder
    assert format(top, "02b") == c.ideal_output == "10"
    assert probs[top] > 1 - 1e-10
    assert circuit_infidelity(c, E0) < 1e-10


def test_pea_all_cnots_paired():
    c = build_pea()
    from errorient.orient import find_conjugate_pairs
    pairs = find_conjugate_pairs(c)
    assert len(pairs) * 2 == len(c.cnot_indices) == 26


def test_pea_input_is_ground_state():
    c = build_pea()
    vec = c.input_vector()
    sys_op = np.kron(np.eye(4, dtype=complex),
                     pauli_matrix(PauliString("XX")) + pauli_matrix(PauliString("YY")))
    np.testing.assert_allclose(sys_op @ vec, -2 * vec, atol=1e-12)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_roundtrip_bv():
    c = build_bv("1011")
    text = format_circuit(c)
    back = parse_circuit(text)
    assert back.width == c.width
    assert back.ops == c.ops
    assert back.output_register == c.output_register
    assert back.ideal_output == c.ideal_output
    assert back.input_state == c.input_state


def test_roundtrip_all_gate_kinds():
    ops = (
        GateOp("H", (0,)), GateOp("X", (1,)), GateOp("Z", (2,)),
        GateOp("T", (0,)), GateOp("TDG", (1,)), GateOp("GAMMA", (2,)),
        GateOp("RX", (0,), angle=0.25), GateOp("RY", (1,), angle=-1.5),
        GateOp("RZ", (2,), angle=math.pi / 7),
        GateOp("CNOT", (0, 2), variant=PulseVariant.SK1_MXI),
    )
    c = Circuit(width=3, ops=ops, output_register=(0,), ideal_output="1")
    back = parse_circuit(format_circuit(c))
    assert back.ops == c.ops
    assert back.ideal_output == "1"


def test_parse_comments_and_errors():
    text = """
    # a comment
    qubits 2
    input 01
    h 0          # trailing comment
    cnot 0 1 sk1_yi
    """
    c = parse_circuit(text)
    assert c.width == 2
    assert c.ops[1].variant is PulseVariant.SK1_YI
    with pytest.raises(ValueError, match="line"):
        parse_circuit("qubits 2\nwarp 0\n")
    with pytest.raises(ValueError, match="qubits"):
        parse_circuit("h 0\n")


@pytest.mark.parametrize("text, line, reason", [
    ("qubits 2\nh 0 1\n", 2, "expected 1 argument"),
    ("qubits 2\nxx 0 1 0.5\n", 2, "unknown gate 'xx'"),
    ("qubits 2\nh 1\nyy 1 0 0.3 sk1\n", 3, "unknown gate 'yy'"),
    ("qubits 2\ncnot 0 1 sk1\n", 2, "'sk1' is not a valid PulseVariant"),
    ("qubits 2\nh 0\nqubits 3\n", 3, "repeated 'qubits'"),
    ("qubits 1\nrx 0 nan\n", 2, "finite"),
    ("qubits 2\noutput 0 1 = 11\nx 0\ncnot 0 -1\n", 4, "nonnegative"),
    ("qubits 7\n", 1, "width must be in 1..6"),
    ("qubits 3\ncnot 0 9\n", 2, "exceeds width 3"),
    ("qubits 2\noutput 0 5 = 10\n", 2, "output register .* is not a subset"),
    ("qubits 2\ninput 011\n", 2, "input state label"),
], ids=["extra-wire", "raw-xx", "raw-yy-sk1", "cnot-sk1-flag", "second-qubits",
        "nan-angle", "negative-wire", "wide-register", "wire-past-width",
        "output-past-width", "long-input"])
def test_parse_rejects_guesses(text, line, reason):
    with pytest.raises(ValueError, match=f"line {line}: .*{reason}"):
        parse_circuit(text)


def test_parse_shares_identical_ops():
    c = parse_circuit("qubits 2\nh 0\ncnot 0 1\nh 0\ncnot 0 1\n")
    assert c.ops[0] is c.ops[2] and c.ops[1] is c.ops[3]


def test_op_core_is_read_only():
    for op in (GateOp("H", (0,)), GateOp("CNOT", (0, 1), variant=PulseVariant.SK1_XI)):
        core = op_core(op, E0)
        assert not core.flags.writeable
        np.testing.assert_array_equal(op_unitary(op, len(op.qubits), E0), core)


def test_pickle_roundtrip_circuit_and_plan():
    # run_sweep with workers > 1 sends circuits to worker processes
    for c in (build_pea(), parse_circuit(format_circuit(build_bv("1011")))):
        back = pickle.loads(pickle.dumps(c))
        assert back.ops == c.ops and back.width == c.width
        assert back.output_register == c.output_register
        np.testing.assert_array_equal(back.input_vector(), c.input_vector())
        np.testing.assert_array_equal(back.ideal_output_vector(), c.ideal_output_vector())
        plan = plan_circuit(c)
        assert pickle.loads(pickle.dumps(plan)) == plan


def test_format_rejects_vector_states():
    c = build_pea()
    with pytest.raises(ValueError):
        format_circuit(c)
