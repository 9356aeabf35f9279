"""Independent references the benchmark checks the program's outputs against.

Sweep values are recomputed by a separate simulator: pulse cores are built in
closed form for every epsilon of a grid at once, and each op is applied to its
own wires of an epsilon-batched state by tensor contraction, so no
full-register matrix is ever built.  Plans are recomputed by a separate
planner that conjugates the traced Pauli through each op's local 2x2 or 4x4
matrix.  Only the circuit IR (which ops, on which wires) is shared with the
program; none of its numerics are.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

_SQ2 = 1 / math.sqrt(2)
_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
_FIXED = {
    "H": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    "X": _PAULI["X"],
    "Z": _PAULI["Z"],
    "T": np.diag([1, np.exp(1j * math.pi / 4)]),
    "TDG": np.diag([1, np.exp(-1j * math.pi / 4)]),
    "GAMMA": np.array([[_SQ2, -1j * _SQ2], [1j * _SQ2, -_SQ2]], dtype=complex),
}
_ROT_AXIS = {"RX": "X", "RY": "Y", "RZ": "Z"}
_CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
_TOFFOLI = np.eye(8, dtype=complex)[[0, 1, 2, 3, 4, 5, 7, 6]]

# Relative agreement required of every checked value.  Below the absolute
# floors the quantities carry only rounding noise, so there they must agree
# to the floor instead.  Gate-level infidelities are 1 - |tr|^2, which loses
# everything under about 1e-15 (the program's own fit floor is 1e-14).
# Circuit infidelities are sums of squared residual amplitudes, compared as
# amplitudes.  Observed disagreement on the built-in circuits is below 5e-16
# in both, so each floor leaves a twenty-fold margin.
RTOL = 1e-6
GATE_ATOL = 1e-14
AMPLITUDE_ATOL = 1e-14


def pauli(letters: str) -> np.ndarray:
    return reduce(np.kron, [_PAULI[ch] for ch in letters])


def rot(letters: str, theta) -> np.ndarray:
    """``exp(-i theta/2 P)`` for a scalar or an array of angles (batch first)."""
    theta = np.asarray(theta, dtype=float)
    p = pauli(letters)
    c = np.cos(theta / 2)[..., None, None]
    s = np.sin(theta / 2)[..., None, None]
    return c * np.eye(len(p)) - 1j * s * p


_W1 = rot("YI", math.pi / 2)
_W2 = rot("ZI", -math.pi / 2) @ rot("YI", -math.pi / 2) @ rot("IX", -math.pi / 2)
_PHI_CNOT = math.acos(-1 / 8)
_ARM = {"sk1_xi": "YI", "sk1_yi": "ZI", "sk1_iy": "IZ"}


def cnot_cores(variant: str, eps: np.ndarray) -> np.ndarray:
    """(B, 4, 4) pulse-sequence CNOT on (control, target) for each epsilon."""
    scale = 1 + np.asarray(eps, dtype=float)
    if variant == "naive":
        return _W2 @ rot("XX", math.pi / 2 * scale) @ _W1
    if variant == "sk1_mxi":
        return np.conj(np.swapaxes(cnot_cores("sk1_xi", eps), -1, -2))
    arm = _ARM[variant]
    return (_W2 @ rot(arm, _PHI_CNOT) @ rot("XX", 2 * math.pi * scale)
            @ rot(arm, -2 * _PHI_CNOT) @ rot("XX", 2 * math.pi * scale)
            @ rot(arm, _PHI_CNOT) @ rot("XX", math.pi / 2 * scale) @ _W1)


def _op_matrix(op, eps: np.ndarray, variant: str | None = None):
    """Local matrix of one op: (2^k, 2^k), or (B, 2^k, 2^k) for a CNOT, whose
    pulses depend on eps.  ``variant`` overrides the CNOT's own pulse variant.
    Raw XX/YY pulses appear in no workload and are not modelled."""
    kind = op.kind
    if kind == "CNOT":
        return cnot_cores(variant or op.variant.value, eps)
    if kind in _ROT_AXIS:
        return rot(_ROT_AXIS[kind], op.angle)
    return _FIXED[kind]


def _apply(psi: np.ndarray, u: np.ndarray, wires) -> np.ndarray:
    """Apply a local operator to ``wires`` of a (B, 2, ..., 2, R) batch."""
    k = len(wires)
    axes = [w + 1 for w in wires]
    front = list(range(1, k + 1))
    moved = np.moveaxis(psi, axes, front)
    shape = moved.shape
    flat = moved.reshape(shape[0], 2 ** k, -1)
    flat = u @ flat
    return np.moveaxis(flat.reshape(shape), front, axes)


def evolve(circuit, eps: np.ndarray, columns: np.ndarray,
           variants: dict[int, str]) -> np.ndarray:
    """Apply the circuit, with the given CNOT variants, to ``columns``
    (2^n x R) at every epsilon: (B, 2^n, R)."""
    n = circuit.width
    batch = len(eps)
    psi = np.broadcast_to(columns, (batch,) + columns.shape)
    psi = psi.reshape((batch,) + (2,) * n + (columns.shape[1],)).copy()
    for i, op in enumerate(circuit.ops):
        psi = _apply(psi, _op_matrix(op, eps, variants.get(i)), op.qubits)
    return psi.reshape(batch, 2 ** n, columns.shape[1])


def conjugate_pairs(circuit) -> list[tuple[int, int]]:
    """Greedy left-to-right CNOT pairs with the same (control, target) whose
    interior never touches the control wire."""
    cnots = [i for i, op in enumerate(circuit.ops) if op.kind == "CNOT"]
    used: set[int] = set()
    pairs = []
    for pos, i in enumerate(cnots):
        if i in used:
            continue
        c, t = circuit.ops[i].qubits
        for j in cnots[pos + 1:]:
            if j in used or circuit.ops[j].qubits != (c, t):
                continue
            if any(c in other.qubits for other in circuit.ops[i + 1:j]):
                continue
            pairs.append((i, j))
            used.update((i, j))
            break
    return pairs


def strategy_variants(circuit, strategy: str) -> dict[int, str]:
    cnots = [i for i, op in enumerate(circuit.ops) if op.kind == "CNOT"]
    if strategy != "sk1_pair":
        return {i: strategy for i in cnots}
    chosen = {i: "sk1_xi" for i in cnots}
    for i, j in conjugate_pairs(circuit):
        chosen[j] = "sk1_mxi"
    return chosen


def sweep_values(circuit, gate_level: bool, strategies, eps) -> dict[str, np.ndarray]:
    """Reference series keyed like the program's CSV columns
    (``gate_infidelity_<s>`` and ``circuit_infidelity_<s>``)."""
    eps = np.asarray(eps, dtype=float)
    out = {}
    n = circuit.width
    if gate_level:
        columns = np.eye(2 ** n, dtype=complex)
    else:
        columns = _input_column(circuit)
    for strategy in strategies:
        gate_variant = "sk1_xi" if strategy == "sk1_pair" else strategy
        core = cnot_cores(gate_variant, eps)
        out[f"gate_infidelity_{strategy}"] = _one_minus_overlap(_CNOT, core)
        final = evolve(circuit, eps, columns, strategy_variants(circuit, strategy))
        if gate_level:
            out[f"circuit_infidelity_{strategy}"] = _one_minus_overlap(_TOFFOLI, final)
        else:
            out[f"circuit_infidelity_{strategy}"] = _off_target_weight(circuit, final[:, :, 0])
    return out


def _input_column(circuit) -> np.ndarray:
    n = circuit.width
    state = circuit.input_state
    if isinstance(state, str):
        col = np.zeros((2 ** n, 1), dtype=complex)
        col[int(state, 2), 0] = 1
        return col
    return np.asarray(state, dtype=complex).reshape(-1, 1)


def _one_minus_overlap(ideal: np.ndarray, applied: np.ndarray) -> np.ndarray:
    t = np.einsum("ij,bij->b", ideal.conj(), applied) / ideal.shape[0]
    return np.maximum(1 - np.minimum(np.abs(t) ** 2, 1), 0)


def _off_target_weight(circuit, psi: np.ndarray) -> np.ndarray:
    """Probability outside the ideal basis label on the output register."""
    label = circuit.ideal_output
    if not isinstance(label, str):
        raise ValueError("the reference handles basis-label ideal outputs only")
    n = circuit.width
    idx = np.arange(2 ** n)
    bits = [(idx >> (n - 1 - q)) & 1 for q in circuit.output_register]
    hit = np.ones(2 ** n, dtype=bool)
    for b, ch in zip(bits, label):
        hit &= b == int(ch)
    return (np.abs(psi[:, ~hit]) ** 2).sum(axis=1)


def compare_series(name: str, got, want, amplitude: bool) -> list[str]:
    """Problems found comparing one program series against its reference.

    ``amplitude`` marks a sum of squared residual amplitudes, compared as
    amplitudes; otherwise the value is a trace-based 1 - fidelity."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{name}: {got.shape[0]} values, expected {want.shape[0]}"]
    if not np.all(np.isfinite(got)):
        return [f"{name}: non-finite value"]
    if amplitude:
        a, b = np.sqrt(np.maximum(got, 0)), np.sqrt(want)
        bad = np.abs(a - b) > RTOL * b + AMPLITUDE_ATOL
    else:
        bad = np.abs(got - want) > RTOL * np.abs(want) + GATE_ATOL
    if np.any(bad):
        k = int(np.argmax(bad))
        return [f"{name}[{k}]: got {got[k]!r}, reference {want[k]!r}"]
    return []


# ---------------------------------------------------------------------------
# Planning reference
# ---------------------------------------------------------------------------

def _words(k):
    if k == 0:
        return [""]
    return [w + ch for w in _words(k - 1) for ch in "IXYZ"]


_LOCAL_BASIS = {k: [(w, pauli(w)) for w in _words(k)] for k in (1, 2)}
_PHASES = (1, -1, 1j, -1j)


def _local_ideal(op) -> np.ndarray:
    """The op at epsilon = 0; every pulse variant is then the CNOT up to phase."""
    return _CNOT if op.kind == "CNOT" else _op_matrix(op, np.zeros(1))


def _decode_local(m: np.ndarray):
    """(letters, phase) when ``m`` is a signed Pauli string, else None."""
    k = m.shape[0].bit_length() - 1
    for word, p in _LOCAL_BASIS[k]:
        c = np.vdot(p, m) / m.shape[0]
        if abs(abs(c) - 1) < 1e-9:
            phase = min(_PHASES, key=lambda z: abs(c - z))
            if abs(c - phase) < 1e-9 and np.abs(m - phase * p).max() < 1e-9:
                return word, phase
            return None
    return None


def local_trace(circuit, op_index: int, qubit: int, axis: str):
    """Terminal (letters, phase) of a Pauli placed after ``op_index``, or None
    when an op acting on it maps it outside the Pauli group (opaque)."""
    letters = ["I"] * circuit.width
    letters[qubit] = axis
    phase = 1
    for op in circuit.ops[op_index + 1:]:
        local = "".join(letters[q] for q in op.qubits)
        if set(local) == {"I"}:
            continue
        u = _local_ideal(op)
        decoded = _decode_local(u @ pauli(local) @ u.conj().T)
        if decoded is None:
            return None
        word, ph = decoded
        phase *= ph
        for q, ch in zip(op.qubits, word):
            letters[q] = ch
    return "".join(letters), phase


#: Measurement-pass candidates in the program's documented preference order.
CANDIDATES = (("sk1_xi", 0, "X"), ("sk1_yi", 0, "Y"), ("sk1_iy", 1, "Y"))


def reference_plan(circuit) -> dict[int, tuple[str, str]]:
    """op index -> (variant, rationale) for every CNOT."""
    plan = {}
    for i, j in conjugate_pairs(circuit):
        plan[i] = ("sk1_xi", "pair-cancel")
        plan[j] = ("sk1_mxi", "pair-cancel")
    measured = circuit.output_register
    for i, op in enumerate(circuit.ops):
        if op.kind != "CNOT" or i in plan:
            continue
        plan[i] = ("sk1_xi", "default")
        if not measured:
            continue
        for variant, which, axis in CANDIDATES:
            terminal = local_trace(circuit, i, op.qubits[which], axis)
            if terminal is not None and all(terminal[0][q] in "IZ" for q in measured):
                plan[i] = (variant, "measurement-cancel")
                break
    return plan


def dense_terminal(circuit, op_index: int, qubit: int, axis: str, op_unitary):
    """Terminal Pauli by conjugating the full-register matrix through every
    later op; ``op_unitary(i)`` gives op i's full-register matrix at epsilon
    = 0.  Returns (letters, phase), or None if the result is no Pauli."""
    letters = ["I"] * circuit.width
    letters[qubit] = axis
    m = pauli("".join(letters))
    for i in range(op_index + 1, len(circuit.ops)):
        u = op_unitary(i)
        m = u @ m @ u.conj().T
    return decode_dense(m)


def decode_dense(m: np.ndarray):
    """Read a signed Pauli string off a full-register matrix by testing, wire
    by wire, whether it commutes or anticommutes with X and with Z there."""
    dim = m.shape[0]
    n = dim.bit_length() - 1
    idx = np.arange(dim)
    letters = []
    for q in range(n):
        bit = 1 << (n - 1 - q)
        zsign = np.where(idx & bit, -1.0, 1.0)
        z_comm = _relation(m * zsign[None, :], zsign[:, None] * m)
        x_comm = _relation(m[:, idx ^ bit], m[idx ^ bit, :])
        if z_comm is None or x_comm is None:
            return None
        letters.append({(True, True): "I", (True, False): "Z",
                        (False, True): "X", (False, False): "Y"}[(z_comm, x_comm)])
    word = "".join(letters)
    p = pauli(word)
    r = int(np.argmax(np.abs(p[:, 0])))
    c = m[r, 0] / p[r, 0]
    phase = min(_PHASES, key=lambda z: abs(c - z))
    if np.abs(m - phase * p).max() > 1e-9:
        return None
    return word, phase


def _relation(a: np.ndarray, b: np.ndarray):
    """True if a == b, False if a == -b, None otherwise."""
    if np.abs(a - b).max() < 1e-9:
        return True
    if np.abs(a + b).max() < 1e-9:
        return False
    return None
