"""Circuit representation, exact simulator, circuit infidelity, and benchmark builders.

Circuits are immutable: a tuple of gate operations plus an input state, an
output register, and the ideal pure state expected on that register.  The
simulator is exact (dense state vectors, no sampling); the systematic error
``epsilon`` enters only through CNOTs, via the XX pulse inside each, per the
gate module's contract.  Circuit infidelity sums the squared amplitudes of the
final state orthogonal to the ideal output, so it needs no ``1 - fidelity``
subtraction.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import qmat
from .gates import ErrorModel, PulseVariant, _cnot_core
from .qmat import MAX_QUBITS, PauliString, apply_local, embed, rot

_SQ2 = 1 / math.sqrt(2)

#: Basis-change gate for YY ladders: the Hermitian Clifford with gamma Z gamma = Y.
GAMMA = np.array([[_SQ2, -1j * _SQ2], [1j * _SQ2, -_SQ2]], dtype=complex)

_FIXED_1Q = {
    "H": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    "X": qmat.PAULI_1Q["X"].copy(),
    "Z": qmat.PAULI_1Q["Z"].copy(),
    "T": np.diag([1, np.exp(1j * math.pi / 4)]).astype(complex),
    "TDG": np.diag([1, np.exp(-1j * math.pi / 4)]).astype(complex),
    "GAMMA": GAMMA,
}
# op_core hands these out shared, so they must stay unmodified.
for _core in _FIXED_1Q.values():
    _core.flags.writeable = False
del _core

_ROTATION_1Q = {"RX": "X", "RY": "Y", "RZ": "Z"}

GATE_KINDS = tuple(_FIXED_1Q) + tuple(_ROTATION_1Q) + ("CNOT",)


@dataclass(frozen=True, slots=True)
class GateOp:
    """One circuit element: a named gate on specific wires.

    ``angle`` applies to rotation gates and ``variant`` to CNOT, the only op
    that feels the error model.
    """

    kind: str
    qubits: tuple[int, ...]
    angle: float | None = None
    variant: PulseVariant | None = None

    def __post_init__(self):
        kind = self.kind.upper()
        object.__setattr__(self, "kind", kind)
        if kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        object.__setattr__(self, "qubits", tuple(_integer(q, "qubit") for q in self.qubits))
        arity = 2 if kind == "CNOT" else 1
        if len(self.qubits) != arity:
            raise ValueError(f"{kind} takes {arity} qubit(s), got {self.qubits}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"{kind} qubits must be distinct, got {self.qubits}")
        needs_angle = kind in _ROTATION_1Q
        if needs_angle and self.angle is None:
            raise ValueError(f"{kind} requires an angle")
        if not needs_angle and self.angle is not None:
            raise ValueError(f"{kind} takes no angle")
        if needs_angle and not math.isfinite(self.angle):
            raise ValueError(f"{kind} angle must be finite, got {self.angle!r}")
        if kind == "CNOT":
            object.__setattr__(
                self, "variant",
                PulseVariant.NAIVE if self.variant is None else PulseVariant(self.variant),
            )
        elif self.variant is not None:
            raise ValueError(f"{kind} takes no pulse variant")

    @property
    def control(self) -> int:
        if self.kind != "CNOT":
            raise ValueError("control is defined for CNOT ops only")
        return self.qubits[0]

    @property
    def target(self) -> int:
        if self.kind != "CNOT":
            raise ValueError("target is defined for CNOT ops only")
        return self.qubits[1]


def _integer(value, what: str) -> int:
    """``value`` as an int if it is a nonnegative int or numpy integer, not a bool."""
    if not isinstance(value, bool) and hasattr(type(value), "__index__") and value >= 0:
        return operator.index(value)
    raise ValueError(f"{what} must be a nonnegative integer, got {value!r}")


def _as_state(value, nbits: int, what: str) -> np.ndarray:
    dim = 2 ** nbits
    if isinstance(value, str):
        if len(value) != nbits or any(ch not in "01" for ch in value):
            raise ValueError(f"{what} label {value!r} is not a {nbits}-bit string")
        vec = np.zeros(dim, dtype=complex)
        vec[int(value, 2)] = 1.0
        return vec
    vec = np.asarray(value, dtype=complex).reshape(-1)
    if vec.shape != (dim,):
        raise ValueError(f"{what} vector has dimension {vec.shape[0]}, expected {dim}")
    if not np.isfinite(vec).all():
        raise ValueError(f"{what} vector has non-finite entries")
    if abs(np.linalg.norm(vec) - 1) > 1e-12:
        raise ValueError(f"{what} vector is not normalized")
    return vec


@dataclass(frozen=True, eq=False, slots=True)
class Circuit:
    """Ordered gate list with input state, output register, and ideal output."""

    width: int
    ops: tuple[GateOp, ...]
    input_state: object = None          # basis label (str) or state vector; default |0...0>
    output_register: tuple[int, ...] = ()
    ideal_output: object = None         # basis label (str) or state vector on the register

    def __post_init__(self):
        object.__setattr__(self, "width", _integer(self.width, "width"))
        if not 1 <= self.width <= MAX_QUBITS:
            raise ValueError(f"width must be in 1..{MAX_QUBITS}, got {self.width}")
        object.__setattr__(self, "ops", tuple(self.ops))
        for op in self.ops:
            if not isinstance(op, GateOp):
                raise ValueError(f"ops must be GateOp instances, got {op!r}")
            if any(q >= self.width for q in op.qubits):
                raise ValueError(f"op {op.kind} on {op.qubits} exceeds width {self.width}")
        reg = tuple(_integer(q, "output register wire") for q in self.output_register)
        if len(set(reg)) != len(reg) or any(not 0 <= q < self.width for q in reg):
            raise ValueError(f"output register {reg} is not a subset of the wires")
        object.__setattr__(self, "output_register", reg)
        if self.input_state is None:
            object.__setattr__(self, "input_state", "0" * self.width)
        _as_state(self.input_state, self.width, "input state")
        if self.ideal_output is not None:
            if not reg:
                raise ValueError("ideal output requires a nonempty output register")
            _as_state(self.ideal_output, len(reg), "ideal output")

    @property
    def cnot_indices(self) -> tuple[int, ...]:
        return tuple(i for i, op in enumerate(self.ops) if op.kind == "CNOT")

    def input_vector(self) -> np.ndarray:
        return _as_state(self.input_state, self.width, "input state")

    def ideal_output_vector(self) -> np.ndarray:
        if self.ideal_output is None:
            raise ValueError("circuit has no ideal output defined")
        return _as_state(self.ideal_output, len(self.output_register), "ideal output")


def with_variants(circuit: Circuit, assignment: dict[int, PulseVariant]) -> Circuit:
    """New circuit with CNOT pulse variants replaced at the given op indices."""
    ops = list(circuit.ops)
    for idx, variant in assignment.items():
        if not 0 <= idx < len(ops) or ops[idx].kind != "CNOT":
            raise ValueError(f"op index {idx} is not a CNOT")
        ops[idx] = replace(ops[idx], variant=PulseVariant(variant))
    return replace(circuit, ops=tuple(ops))


def op_core(op: GateOp, err: ErrorModel) -> np.ndarray:
    """Local 2x2 or 4x4 matrix of one op, tensor factors in ``op.qubits`` order.

    Epsilon touches only CNOTs.  The result may be a shared read-only array;
    callers must not modify it.
    """
    if op.kind == "CNOT":
        return _cnot_core(op.variant, err.epsilon)
    if op.kind in _ROTATION_1Q:
        return rot(PauliString(_ROTATION_1Q[op.kind]), op.angle)
    return _FIXED_1Q[op.kind]


def op_unitary(op: GateOp, width: int, err: ErrorModel) -> np.ndarray:
    """Full-register unitary of one op: :func:`op_core` embedded on its wires."""
    return embed(op_core(op, err), op.qubits, width)


def _evolve(circuit: Circuit, err: ErrorModel, columns: np.ndarray) -> np.ndarray:
    """Apply every op's local core, in order, to a ``(2^width, R)`` block of states."""
    for op in circuit.ops:
        columns = apply_local(columns, op_core(op, err), op.qubits)
    return columns


def simulate(circuit: Circuit, err: ErrorModel = ErrorModel(0.0)) -> np.ndarray:
    """Final state vector: the ordered product of op unitaries applied to the input."""
    return _evolve(circuit, err, circuit.input_vector()[:, None])[:, 0]


def circuit_unitary(circuit: Circuit, err: ErrorModel = ErrorModel(0.0)) -> np.ndarray:
    """The circuit as a single unitary (ops composed in order)."""
    return _evolve(circuit, err, np.eye(2 ** circuit.width, dtype=complex))


def _orthogonal_residual(circuit: Circuit, err: ErrorModel) -> np.ndarray:
    """Part of the final state orthogonal to the ideal output on the register.

    Returned as a ``(2^|register|, 2^rest)`` matrix whose columns range over
    the basis of the discarded wires.
    """
    psi = simulate(circuit, err)
    reg = circuit.output_register
    rest = [q for q in range(circuit.width) if q not in reg]
    order = list(reg) + rest
    mat = psi.reshape((2,) * circuit.width).transpose(order).reshape(
        2 ** len(reg), 2 ** len(rest)
    )
    v = circuit.ideal_output_vector()
    return mat - np.outer(v, v.conj() @ mat)


def circuit_infidelity(circuit: Circuit, err: ErrorModel = ErrorModel(0.0)) -> float:
    """Probability that the output register is not found in the ideal state.

    Non-output qubits are traced out.  The value is the summed squared
    amplitude of the final state's component orthogonal to the ideal output,
    a sum of squares rather than ``1 - fidelity``, so steep error curves stay
    resolvable far below 1e-16.
    """
    resid = _orthogonal_residual(circuit, err)
    return float((np.abs(resid) ** 2).sum())


# ---------------------------------------------------------------------------
# Benchmark circuits
# ---------------------------------------------------------------------------

def _h(q):
    return GateOp("H", (q,))


def _rz(q, angle):
    return GateOp("RZ", (q,), angle=angle)


def _cnot(c, t):
    return GateOp("CNOT", (c, t))


def build_bv(a: str) -> Circuit:
    """Bernstein-Vazirani circuit over 4 data qubits and one ancilla.

    The oracle marks the hidden string ``a``: the ancilla is prepared in the
    minus state (H then Z), and qubit k controls a CNOT onto the ancilla
    exactly when ``a[k] == '1'``.  The data register is measured in the
    computational basis and ideally reads ``a``.
    """
    if len(a) != 4 or any(ch not in "01" for ch in a):
        raise ValueError(f"hidden string must be 4 bits, got {a!r}")
    ops = [_h(q) for q in range(5)]
    ops.append(GateOp("Z", (4,)))
    ops.extend(_cnot(k, 4) for k in range(4) if a[k] == "1")
    ops.extend(_h(q) for q in range(4))
    return Circuit(width=5, ops=tuple(ops), output_register=(0, 1, 2, 3), ideal_output=a)


def ideal_toffoli() -> np.ndarray:
    u = np.eye(8, dtype=complex)
    u[[6, 7], [6, 7]] = 0
    u[6, 7] = u[7, 6] = 1
    return u


def build_toffoli() -> Circuit:
    """Canonical Toffoli decomposition into 6 CNOTs, T/Tdg gates, and Hadamards.

    Controls are qubits 0 and 1, target is qubit 2.  The T on the first
    control is placed before the final CNOT pair (it commutes with a CNOT it
    controls), so each of the three conjugate CNOT pairs encloses target-only
    operations.  Evaluated as a gate against the ideal Toffoli rather than as
    a fixed-input circuit.
    """
    c1, c2, t = 0, 1, 2
    tg = GateOp("T", (t,))
    tdg = GateOp("TDG", (t,))
    ops = (
        _h(t),
        _cnot(c2, t), tdg,
        _cnot(c1, t), tg,
        _cnot(c2, t), tdg,
        _cnot(c1, t),
        GateOp("T", (c2,)), tg, _h(t),
        GateOp("T", (c1,)),
        _cnot(c1, c2), GateOp("TDG", (c2,)), _cnot(c1, c2),
    )
    return Circuit(width=3, ops=ops)


def _controlled_rot_ops(axis: str, theta: float, ctrl: int, q1: int, q2: int):
    """Ops realising a controlled two-qubit rotation via a CNOT/Rz ladder.

    A basis-change layer (H for XX, gamma for YY) turns the rotation into a
    controlled-ZZ phase, which the ladder accumulates on q2: the parity CNOT
    from q1, two control CNOTs enclosing Rz(-theta/2), and Rz(theta/4) shims.
    """
    bc = "H" if axis == "XX" else "GAMMA"
    return [
        GateOp(bc, (q1,)), GateOp(bc, (q2,)),
        _cnot(q1, q2),
        _rz(q2, theta / 4),
        _cnot(ctrl, q2),
        _rz(q2, -theta / 2),
        _cnot(ctrl, q2),
        _rz(q2, theta / 4),
        _cnot(q1, q2),
        GateOp(bc, (q1,)), GateOp(bc, (q2,)),
    ]


#: Deterministic ancilla readout of the phase-estimation circuit at epsilon=0,
#: fixed once by exact simulation (see the regression test that re-derives it).
PEA_GOLDEN_READOUT = "10"


def build_pea() -> Circuit:
    """Four-qubit phase estimation on the two-qubit coupling XX + YY.

    Ancillas are qubits 0 and 1; the system pair (2, 3) starts exactly in the
    coupling's ground state (|10> - |01>)/sqrt(2) -- state preparation is
    perfect by construction.  Ancilla 0 controls one (XX(pi), YY(pi)) block
    pair and ancilla 1 controls two more, followed by the two-bit inverse
    Fourier stage written as an Rz/CNOT ladder.  The eigenphase is exactly
    representable in two bits, so the ancilla readout is deterministic.
    """
    psi0 = np.zeros(16, dtype=complex)
    psi0[int("0010", 2)] = _SQ2
    psi0[int("0001", 2)] = -_SQ2
    ops = [_h(0), _h(1)]
    for ctrl in (0, 1, 1):
        ops.extend(_controlled_rot_ops("XX", math.pi, ctrl, 2, 3))
        ops.extend(_controlled_rot_ops("YY", math.pi, ctrl, 2, 3))
    ops.append(_h(1))
    ops.append(_rz(0, -math.pi / 8))
    ops.append(_cnot(1, 0))
    ops.append(_rz(0, math.pi / 4))
    ops.append(_cnot(1, 0))
    ops.append(_rz(0, -math.pi / 8))
    ops.append(_h(0))
    return Circuit(width=4, ops=tuple(ops), input_state=psi0,
                   output_register=(0, 1), ideal_output=PEA_GOLDEN_READOUT)


# ---------------------------------------------------------------------------
# Line-oriented serialization: one op per line, `GATE q0 [q1] [angle] [variant]`
# ---------------------------------------------------------------------------

def format_circuit(circuit: Circuit) -> str:
    """Serialize a circuit to the line-oriented text format.

    Only computational-basis input/ideal states are representable in text;
    circuits prepared in arbitrary state vectors must be built in code.
    """
    if not isinstance(circuit.input_state, str):
        raise ValueError("only basis-label input states can be serialized")
    lines = [f"qubits {circuit.width}", f"input {circuit.input_state}"]
    if circuit.output_register:
        reg = " ".join(str(q) for q in circuit.output_register)
        if circuit.ideal_output is None:
            lines.append(f"output {reg}")
        elif isinstance(circuit.ideal_output, str):
            lines.append(f"output {reg} = {circuit.ideal_output}")
        else:
            raise ValueError("only basis-label ideal outputs can be serialized")
    for op in circuit.ops:
        parts = [op.kind.lower()] + [str(q) for q in op.qubits]
        if op.angle is not None:
            parts.append(f"{op.angle:.17g}")
        if op.kind == "CNOT" and op.variant is not PulseVariant.NAIVE:
            parts.append(op.variant.value)
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


_HEADERS = ("qubits", "input", "output")

# ASCII only: int() and float() also accept "1_0", non-ASCII digits and
# "infinity", none of which the format defines.  _DECIMAL matches every finite
# value that "%.17g" or repr() writes; the CLI's settings use both rules too.
_INDEX = re.compile(r"[0-9]+")
_DECIMAL = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")


def _index(token: str, what: str) -> int:
    """An integer token as an int; ValueError unless it is ASCII digits."""
    if not _INDEX.fullmatch(token):
        raise ValueError(f"{what} must be a nonnegative decimal integer, got {token!r}")
    return int(token)


def _decimal(token: str, what: str) -> float:
    """A real-number token as a float; ValueError unless it is a finite ASCII decimal."""
    if not (_DECIMAL.fullmatch(token) and math.isfinite(value := float(token))):
        raise ValueError(f"{what} must be a finite decimal number, got {token!r}")
    return value


def _check_count(args, *counts):
    """Raise ValueError unless ``len(args)`` is one of ``counts``."""
    if len(args) not in counts:
        want = " or ".join(map(str, counts))
        raise ValueError(f"expected {want} argument(s), got {len(args)}")


def parse_circuit(text: str) -> Circuit:
    """Parse the line-oriented circuit format; inverse of :func:`format_circuit`.

    Anything the format does not define is rejected with its line number:
    repeated header lines, extra or misspelt tokens, numbers that are not
    plain ASCII decimals (``1_0``, non-ASCII digits), non-finite angles, and
    a width, wire or state label that :class:`Circuit` rejects.  Identical op
    lines yield one shared :class:`GateOp`.
    """
    width = None
    input_state = None
    output_register: tuple[int, ...] = ()
    ideal_output = None
    header_lines: dict[str, int] = {}
    ops: list[GateOp] = []
    op_lines: list[int] = []
    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0].lower()
        try:
            if head in _HEADERS:
                if head in header_lines:
                    raise ValueError(f"repeated {head!r} line")
                header_lines[head] = lineno
            if head == "qubits":
                _check_count(tokens[1:], 1)
                width = _index(tokens[1], "width")
            elif head == "input":
                _check_count(tokens[1:], 1)
                input_state = tokens[1]
            elif head == "output":
                rest = tokens[1:]
                if "=" in rest:
                    eq = rest.index("=")
                    output_register = tuple(_index(q, "output wire") for q in rest[:eq])
                    _check_count(rest[eq + 1:], 1)
                    ideal_output = rest[eq + 1]
                else:
                    output_register = tuple(_index(q, "output wire") for q in rest)
            else:
                ops.append(_parse_op(head, tuple(tokens[1:])))
                op_lines.append(lineno)
        except (ValueError, IndexError, KeyError) as exc:
            raise ValueError(f"line {lineno}: cannot parse {raw!r}: {exc}") from exc
    if width is None:
        raise ValueError("missing 'qubits <n>' header line")
    try:
        return Circuit(width=width, ops=tuple(ops), input_state=input_state,
                       output_register=output_register, ideal_output=ideal_output)
    except ValueError as exc:
        # Each piece on its own, in the order Circuit checks them; the first
        # one it rejects is the line that raised.
        pieces = [(header_lines["qubits"], {})]
        pieces += [(lineno, {"ops": (op,)}) for lineno, op in zip(op_lines, ops)]
        pieces += [(header_lines.get("output"), {"output_register": output_register}),
                   (header_lines.get("input"), {"input_state": input_state}),
                   (header_lines.get("output"), {"output_register": output_register,
                                                 "ideal_output": ideal_output})]
        for lineno, fields in pieces:
            try:
                Circuit(**{"width": width, "ops": (), **fields})
            except ValueError:
                raise ValueError(f"line {lineno}: cannot parse {lines[lineno - 1]!r}: "
                                 f"{exc}") from exc
        raise


# Generated and repeated circuits reuse a small set of op lines; sharing one
# immutable GateOp per distinct line keeps parsed circuits small.  Exceptions
# are never cached.
@lru_cache(maxsize=4096)
def _parse_op(name: str, args: tuple[str, ...]) -> GateOp:
    kind = name.upper()
    if kind not in GATE_KINDS:
        raise ValueError(f"unknown gate {name!r}")
    if kind == "CNOT":
        _check_count(args, 2, 3)
        variant = PulseVariant(args[2].lower()) if len(args) > 2 else None
        return GateOp("CNOT", (_index(args[0], "wire"), _index(args[1], "wire")),
                      variant=variant)
    if kind in _ROTATION_1Q:
        _check_count(args, 2)
        return GateOp(kind, (_index(args[0], "wire"),), angle=_decimal(args[1], "angle"))
    _check_count(args, 1)
    return GateOp(kind, (_index(args[0], "wire"),))
