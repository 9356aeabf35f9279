"""Helpers shared by the test modules: a unitarity check and circuit generators."""

import math
import random

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


@st.composite
def circuits(draw, min_width=3, max_width=6, clifford_t=True, vector_input=False):
    """Random circuits of ``min_width..max_width`` qubits and 1-10 ops.

    On two or more wires, half the ops on average are CNOTs, the only
    two-qubit and only error-carrying gates; they take every variant on any
    ordered pair of wires, reversed and non-adjacent ones included.  With ``clifford_t`` the
    single-qubit gates are quarter turns and T, so every op but T maps Paulis
    to Paulis; otherwise every single-qubit kind appears with arbitrary
    angles.  With ``vector_input`` the input is a random normalised state
    vector.
    """
    width = draw(st.integers(min_width, max_width))
    wires = st.integers(0, width - 1)
    ops = []
    for _ in range(draw(st.integers(1, 10))):
        if width > 1 and draw(st.booleans()):
            pair = tuple(draw(st.lists(wires, min_size=2, max_size=2, unique=True)))
            ops.append(GateOp("CNOT", pair, variant=draw(st.sampled_from(PulseVariant))))
            continue
        if clifford_t:
            kind, angle = draw(st.sampled_from(_CLIFFORD_T_MENU))
        else:
            kind = draw(st.sampled_from(_ONE_QUBIT_KINDS))
            angle = draw(_ANGLES) if kind.startswith("R") else None
        ops.append(GateOp(kind, (draw(wires),), angle=angle))
    input_state = None
    if vector_input:
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        vec = rng.normal(size=2 ** width) + 1j * rng.normal(size=2 ** width)
        input_state = vec / np.linalg.norm(vec)
    return Circuit(width=width, ops=tuple(ops), input_state=input_state)


_PLAN_1Q = (("H", None), ("X", None), ("Z", None), ("GAMMA", None),
            ("RZ", math.pi / 2), ("RX", math.pi / 2), ("RY", math.pi))
_PLAN_T = (("T", None), ("TDG", None))


def plan_circuits(seed, count: int) -> list[Circuit]:
    """``count`` seeded Clifford+T circuits of 3-6 qubits for planning.

    Ops are CNOTs, conjugate-pair shapes (a CNOT, one gate on its target,
    the same CNOT again) and single-qubit gates, a fifth of them T or Tdg.
    Half the single-qubit gates land on a wire of the latest CNOT, so T
    gates sit on traced paths.  Each circuit measures a seeded nonempty
    subset of wires; every third one also states an ideal output, a seeded
    basis label on that subset.
    """
    rng = random.Random(seed)
    out = []
    for k in range(count):
        width = rng.randint(3, 6)
        ops: list[GateOp] = []
        wires = tuple(range(width))
        while len(ops) < 3 * width:
            roll = rng.random()
            if roll < 0.45:
                c, t = rng.sample(range(width), 2)
                ops.append(GateOp("CNOT", (c, t)))
                wires = (c, t)
                if roll < 0.1:
                    kind, angle = rng.choice(_PLAN_1Q + _PLAN_T)
                    ops += [GateOp(kind, (t,), angle=angle), GateOp("CNOT", (c, t))]
                continue
            kind, angle = rng.choice(_PLAN_T if rng.random() < 0.2 else _PLAN_1Q)
            q = rng.choice(wires if rng.random() < 0.5 else range(width))
            ops.append(GateOp(kind, (q,), angle=angle))
        reg = tuple(sorted(rng.sample(range(width), rng.randint(1, width))))
        label = "".join(rng.choice("01") for _ in reg) if k % 3 == 0 else None
        out.append(Circuit(width=width, ops=tuple(ops),
                           input_state="".join(rng.choice("01") for _ in range(width)),
                           output_register=reg, ideal_output=label))
    return out
