"""Noise-aware pulse-variant selection passes.

Two strategies pick the residual-error orientation of each CNOT:

* measurement cancellation -- conjugate the candidate single-qubit residual
  through the Clifford suffix of the circuit; pick an orientation whose
  terminal Pauli leaves the ideal output unchanged up to a phase (diagonal on
  every measured wire for a basis readout), hence invisible to the readout;
* conjugate-pair cancellation -- CNOT pairs sharing (control, target) with a
  control-free interior get opposite-sign control-axis residuals, which cancel
  exactly at second order.

Only the leading-order single-qubit residual is traced; higher-order
remainders are accounted for by full simulation.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from .circuit import Circuit, op_core
from .gates import _CORRECTION_AXIS, ErrorModel, PulseVariant, residual_axis
from .qmat import ATOL_ORACLE, NotPauli, PauliString, conjugate_pauli, pauli_matrix


class _Opaque:
    __slots__ = ()

    def __repr__(self):
        return "Opaque"


#: Sentinel returned by :func:`trace_orientation` when tracing meets a
#: non-Clifford op on the error's support.  Compare with ``is``.
Opaque = _Opaque()


@dataclass(frozen=True)
class ErrorPlacement:
    """A single-qubit Pauli error inserted right after the op at ``op_index``."""

    op_index: int
    qubit: int
    axis: str

    def __post_init__(self):
        if self.axis not in ("X", "Y", "Z"):
            raise ValueError(f"axis must be X, Y, or Z, got {self.axis!r}")


@dataclass(frozen=True, slots=True)
class Assignment:
    """Chosen pulse variant for one CNOT, with the reason it was picked."""

    op_index: int
    control: int
    target: int
    variant: PulseVariant
    rationale: str  # measurement-cancel | pair-cancel | default

    def as_dict(self) -> dict:
        d = asdict(self)
        d["variant"] = self.variant.value
        return d


# Plans of different circuits repeat a small set of rows; sharing one
# immutable Assignment per distinct row keeps stored plans small.
_assignment = lru_cache(maxsize=4096, typed=True)(Assignment)


@dataclass(frozen=True, slots=True)
class OrientationPlan:
    """Total assignment of pulse variants to the CNOTs of one circuit."""

    assignments: tuple[Assignment, ...]

    def variant_map(self) -> dict[int, PulseVariant]:
        return {a.op_index: a.variant for a in self.assignments}

    def to_jsonl(self) -> str:
        return "".join(json.dumps(a.as_dict(), sort_keys=True) + "\n"
                       for a in self.assignments)


def trace_orientation(circuit: Circuit, placement: ErrorPlacement):
    """Conjugate the placed Pauli through every subsequent op.

    Returns the terminal PauliString, or Opaque when an op on the error's
    support is not Clifford on it.  Ops disjoint from the current support
    commute trivially and are skipped.  Ops are taken at epsilon = 0: the
    pass reasons about ideal propagation of the leading-order residual.

    Each step conjugates only the Pauli's restriction to the op's wires
    through the op's local core, then splices the result back: the entries
    of the local product are those of the full-register one, so the
    tolerance of :func:`conjugate_pauli` means the same thing.
    """
    if not 0 <= placement.op_index < len(circuit.ops):
        raise ValueError(f"op index {placement.op_index} out of range")
    letters = ["I"] * circuit.width
    letters[placement.qubit] = placement.axis
    phase = 1 + 0j
    ideal = ErrorModel(0.0)
    for op in circuit.ops[placement.op_index + 1:]:
        local = "".join(letters[q] for q in op.qubits)
        if set(local) == {"I"}:
            continue
        result = conjugate_pauli(op_core(op, ideal), PauliString(local))
        if result is NotPauli:
            return Opaque
        phase *= result.phase
        for q, ch in zip(op.qubits, result.letters):
            letters[q] = ch
    return PauliString("".join(letters), phase)


def _harmless_at_readout(pauli: PauliString, circuit: Circuit) -> bool:
    """True when the terminal Pauli cannot change the output register's state.

    Discarded wires are free: a unitary confined to traced-out wires leaves
    the reduced output state untouched.  For a basis-label ideal output (or
    none), the Pauli must be diagonal (I or Z) on every measured wire, so it
    only multiplies computational-basis states by phases.  For a state-vector
    ideal output, that vector must be an eigenvector of the Pauli's
    restriction to the register.
    """
    reg = circuit.output_register
    if circuit.ideal_output is None or isinstance(circuit.ideal_output, str):
        return all(pauli.letters[q] in ("I", "Z") for q in reg)
    v = circuit.ideal_output_vector()
    w = pauli_matrix(PauliString("".join(pauli.letters[q] for q in reg))) @ v
    return bool(np.abs(w - np.vdot(v, w) * v).max() <= ATOL_ORACLE)


def _measurement_candidate(variant: PulseVariant) -> tuple[PulseVariant, int, str]:
    """The variant, the wire (0 control, 1 target) and the axis of its residual."""
    letters = residual_axis(variant).letters
    (wire,) = [k for k, ch in enumerate(letters) if ch != "I"]
    return variant, wire, letters[wire]


# Candidate variants in the correction table's preference order.
_MEASUREMENT_CANDIDATES = tuple(map(_measurement_candidate, _CORRECTION_AXIS))


def _choose_for_cnot(circuit: Circuit, op_index: int) -> Assignment:
    op = circuit.ops[op_index]
    if circuit.output_register:
        for variant, wire, axis in _MEASUREMENT_CANDIDATES:
            placement = ErrorPlacement(op_index, op.qubits[wire], axis)
            terminal = trace_orientation(circuit, placement)
            if terminal is Opaque:
                continue
            if _harmless_at_readout(terminal, circuit):
                return _assignment(op_index, op.control, op.target, variant,
                                   "measurement-cancel")
    return _assignment(op_index, op.control, op.target, PulseVariant.SK1_XI, "default")


def find_conjugate_pairs(circuit: Circuit) -> tuple[tuple[int, int], ...]:
    """Greedy left-to-right matching of conjugate CNOT pairs.

    Two CNOTs pair when they share (control, target) and no op strictly
    between them touches the control wire, so a control-axis residual from the
    first commutes across the interior and meets its opposite at the second.
    """
    pairs: list[tuple[int, int]] = []
    used: set[int] = set()
    cnots = circuit.cnot_indices
    for pos, i in enumerate(cnots):
        if i in used:
            continue
        op = circuit.ops[i]
        for j in cnots[pos + 1:]:
            if j in used:
                continue
            partner = circuit.ops[j]
            if (partner.control, partner.target) != (op.control, op.target):
                continue
            interior = circuit.ops[i + 1:j]
            if any(op.control in other.qubits for other in interior):
                continue
            pairs.append((i, j))
            used.update((i, j))
            break
    return tuple(pairs)


def pair_cancel(circuit: Circuit) -> OrientationPlan:
    """Assign the control-X variant and its adjoint across conjugate CNOT pairs.

    The first gate of each pair gets the +X-on-control sequence and the second
    its exact adjoint, so the second-order residuals cancel; unpaired CNOTs
    keep the default variant.
    """
    pairs = find_conjugate_pairs(circuit)
    chosen: dict[int, tuple[PulseVariant, str]] = {}
    for i, j in pairs:
        chosen[i] = (PulseVariant.SK1_XI, "pair-cancel")
        chosen[j] = (PulseVariant.SK1_MXI, "pair-cancel")
    assignments = []
    for i in circuit.cnot_indices:
        op = circuit.ops[i]
        variant, rationale = chosen.get(i, (PulseVariant.SK1_XI, "default"))
        assignments.append(_assignment(i, op.control, op.target, variant, rationale))
    return OrientationPlan(tuple(assignments))


def plan_circuit(circuit: Circuit) -> OrientationPlan:
    """Composite pass: pair cancellation first, then measurement orientation.

    Pair cancellation is local and independent of the measurement basis, so
    paired CNOTs keep their assignments; the measurement pass only decides the
    remaining unpaired ones.
    """
    paired = {a.op_index: a for a in pair_cancel(circuit).assignments
              if a.rationale == "pair-cancel"}
    assignments = []
    for i in circuit.cnot_indices:
        if i in paired:
            assignments.append(paired[i])
        else:
            assignments.append(_choose_for_cnot(circuit, i))
    return OrientationPlan(tuple(assignments))


def plan_table(plan: OrientationPlan) -> str:
    """Human-readable table of a plan (op index, wires, variant, rationale)."""
    header = f"{'op':>4}  {'control':>7}  {'target':>6}  {'variant':<8}  rationale"
    rows = [header, "-" * len(header)]
    for a in plan.assignments:
        rows.append(f"{a.op_index:>4}  {a.control:>7}  {a.target:>6}  "
                    f"{a.variant.value:<8}  {a.rationale}")
    return "\n".join(rows) + "\n"
