"""Helpers shared by the test modules: a unitarity check and a circuit generator."""

import math

import numpy as np
from hypothesis import strategies as st

from errorient.circuit import Circuit, GateOp
from errorient.gates import PulseVariant
from errorient.qmat import ATOL_STRUCT


def is_unitary(u, atol: float = ATOL_STRUCT) -> bool:
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        return False
    return bool(np.abs(u.conj().T @ u - np.eye(u.shape[0])).max() < atol)


_CLIFFORD_T_MENU = (("H", None), ("X", None), ("Z", None), ("GAMMA", None),
                    ("T", None), ("TDG", None), ("RZ", math.pi / 2),
                    ("RZ", -math.pi / 2), ("RX", math.pi / 2), ("RY", math.pi))
_ONE_QUBIT_KINDS = ("H", "X", "Z", "T", "TDG", "GAMMA", "RX", "RY", "RZ")
_ANGLES = st.floats(-2 * math.pi, 2 * math.pi)
# inside (0, 4 pi), where the sk1 correction is defined
_PULSE_ANGLES = st.floats(0.05, 4 * math.pi - 0.05)


@st.composite
def circuits(draw, min_width=3, max_width=6, clifford_t=True, vector_input=False):
    """Random circuits of ``min_width..max_width`` qubits and 1-10 ops.

    CNOTs take every variant and XX/YY pulses are raw or sk1-corrected, on
    any ordered pair of wires, reversed and non-adjacent ones included.  With
    ``clifford_t`` the single-qubit gates are quarter turns and T and the
    pulses are quarter turns, so every op but T maps Paulis to Paulis;
    otherwise every gate kind appears with arbitrary angles.  With
    ``vector_input`` the input is a random normalised state vector.
    """
    width = draw(st.integers(min_width, max_width))
    wires = st.integers(0, width - 1)
    shapes = ("1q", "1q", "cnot", "pulse") if width > 1 else ("1q",)
    ops = []
    for _ in range(draw(st.integers(1, 10))):
        shape = draw(st.sampled_from(shapes))
        if shape == "1q":
            if clifford_t:
                kind, angle = draw(st.sampled_from(_CLIFFORD_T_MENU))
            else:
                kind = draw(st.sampled_from(_ONE_QUBIT_KINDS))
                angle = draw(_ANGLES) if kind.startswith("R") else None
            ops.append(GateOp(kind, (draw(wires),), angle=angle))
            continue
        pair = tuple(draw(st.lists(wires, min_size=2, max_size=2, unique=True)))
        if shape == "cnot":
            ops.append(GateOp("CNOT", pair, variant=draw(st.sampled_from(PulseVariant))))
        else:
            ops.append(GateOp(draw(st.sampled_from(("XX", "YY"))), pair,
                              angle=math.pi / 2 if clifford_t else draw(_PULSE_ANGLES),
                              sk1=draw(st.booleans())))
    input_state = None
    if vector_input:
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        vec = rng.normal(size=2 ** width) + 1j * rng.normal(size=2 ** width)
        input_state = vec / np.linalg.norm(vec)
    return Circuit(width=width, ops=tuple(ops), input_state=input_state)
