"""Dense complex linear algebra and signed Pauli-operator algebra for few-qubit systems.

Conventions used throughout the package:

* qubit 0 is the leftmost tensor factor (the most significant bit of a basis
  index, and the top wire of a circuit diagram);
* ``rot(G, theta)`` realises ``exp(-i theta/2 G)`` in closed form, which is
  exact because every Pauli string squares to the identity;
* unitaries are plain ``numpy.ndarray`` values of complex dtype and are never
  mutated after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

MAX_QUBITS = 6

# Structural identities (unitarity, exact algebraic relations) must hold to
# ATOL_STRUCT; comparisons against independent oracles use ATOL_ORACLE.
ATOL_STRUCT = 1e-12
ATOL_ORACLE = 1e-10

PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

_PHASES = (1 + 0j, -1 + 0j, 1j, -1j)

# Single-letter products a*b -> (phase, letter).
_LETTER_MUL = {
    ("I", "I"): (1, "I"), ("I", "X"): (1, "X"), ("I", "Y"): (1, "Y"), ("I", "Z"): (1, "Z"),
    ("X", "I"): (1, "X"), ("Y", "I"): (1, "Y"), ("Z", "I"): (1, "Z"),
    ("X", "X"): (1, "I"), ("Y", "Y"): (1, "I"), ("Z", "Z"): (1, "I"),
    ("X", "Y"): (1j, "Z"), ("Y", "X"): (-1j, "Z"),
    ("Y", "Z"): (1j, "X"), ("Z", "Y"): (-1j, "X"),
    ("Z", "X"): (1j, "Y"), ("X", "Z"): (-1j, "Y"),
}


class CapacityError(ValueError):
    """Raised when an operator would exceed the supported register size."""


class _NotPauli:
    __slots__ = ()

    def __repr__(self):
        return "NotPauli"


#: Sentinel returned by :func:`conjugate_pauli` when a conjugation result is
#: not a signed Pauli string within tolerance.  Compare with ``is``.
NotPauli = _NotPauli()


@dataclass(frozen=True)
class PauliString:
    """A signed tensor product of single-qubit Pauli operators.

    ``letters`` is a string over ``IXYZ`` with qubit 0 first; ``phase`` is one
    of ``+1, -1, +i, -i``.  Instances are immutable and safe to share.
    """

    letters: str
    phase: complex = 1 + 0j

    def __post_init__(self):
        if not self.letters or any(ch not in "IXYZ" for ch in self.letters):
            raise ValueError(f"letters must be a nonempty string over IXYZ, got {self.letters!r}")
        if len(self.letters) > MAX_QUBITS:
            raise CapacityError(f"{len(self.letters)} qubits exceeds the {MAX_QUBITS}-qubit capacity")
        if self.phase not in _PHASES:
            raise ValueError(f"phase must be one of +1, -1, +i, -i, got {self.phase!r}")
        object.__setattr__(self, "phase", complex(self.phase))

    @property
    def n(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "PauliString") -> "PauliString":
        if not isinstance(other, PauliString):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("cannot multiply Pauli strings of different lengths")
        phase = self.phase * other.phase
        letters = []
        for a, b in zip(self.letters, other.letters):
            ph, ch = _LETTER_MUL[(a, b)]
            phase *= ph
            letters.append(ch)
        return PauliString("".join(letters), phase)

    def anticommutes(self, other: "PauliString") -> bool:
        """True when the two strings anticommute (odd number of clashing sites)."""
        if self.n != other.n:
            raise ValueError("cannot compare Pauli strings of different lengths")
        clashes = sum(
            1 for a, b in zip(self.letters, other.letters)
            if a != "I" and b != "I" and a != b
        )
        return clashes % 2 == 1

    def __str__(self):
        sign = {1 + 0j: "+", -1 + 0j: "-", 1j: "+i", -1j: "-i"}[self.phase]
        return f"{sign}{self.letters}"


def pauli_matrix(p: PauliString) -> np.ndarray:
    """Dense matrix realisation: phase times the tensor product of the letters."""
    mats = [PAULI_1Q[ch] for ch in p.letters]
    return p.phase * reduce(np.kron, mats)


def third_axis(a1: PauliString, a2: PauliString) -> PauliString:
    """Axis completing an anticommuting pair to a rotation triple: ``-i a1 a2``.

    For single qubits ``third_axis(X, Y) == Z``.  The result always carries a
    real phase (+1 or -1).
    """
    if not a1.anticommutes(a2):
        raise ValueError("third_axis requires an anticommuting pair")
    prod = a1 * a2
    return PauliString(prod.letters, prod.phase * -1j)


def rot(generator: PauliString, theta: float) -> np.ndarray:
    """``exp(-i theta/2 G)`` for a Hermitian Pauli-string generator.

    Computed in closed form ``cos(theta/2) I - i sin(theta/2) G``; no numeric
    matrix exponential is involved.
    """
    if generator.phase != 1:
        raise ValueError("rotation generators must be Hermitian (phase +1)")
    dim = 2 ** generator.n
    return (math.cos(theta / 2) * np.eye(dim, dtype=complex)
            - 1j * math.sin(theta / 2) * pauli_matrix(generator))


def rot_blend(a1: PauliString, a2: PauliString, phi: float, theta: float) -> np.ndarray:
    """Rotation by ``theta`` about the blended axis ``cos(phi) a1 + sin(phi) a2``.

    The pair must anticommute (so the blend squares to the identity and the
    closed form is exact) and both generators must be Hermitian: phase +1
    or -1.
    """
    if a1.phase.imag or a2.phase.imag:
        raise ValueError("blend generators must be Hermitian (phase +1 or -1)")
    if a1.n != a2.n:
        raise ValueError("blend generators must act on the same register")
    if not a1.anticommutes(a2):
        raise ValueError("blend axes must anticommute")
    axis = math.cos(phi) * pauli_matrix(a1) + math.sin(phi) * pauli_matrix(a2)
    dim = 2 ** a1.n
    return (math.cos(theta / 2) * np.eye(dim, dtype=complex)
            - 1j * math.sin(theta / 2) * axis)


def _decode_signed_pauli(m: np.ndarray, atol: float):
    """Decode a matrix into a signed PauliString, or NotPauli if it is not one."""
    dim = m.shape[0]
    n = dim.bit_length() - 1
    col0 = m[:, 0]
    r = int(np.argmax(np.abs(col0)))
    if abs(abs(col0[r]) - 1) > atol:
        return NotPauli
    xmask = r
    idx = np.arange(dim)
    d = m[idx ^ xmask, idx]
    if np.any(np.abs(np.abs(d) - 1) > atol):
        return NotPauli
    ratios = d / d[0]
    letters = []
    for k in range(n):
        bit = n - 1 - k
        xbit = (xmask >> bit) & 1
        ratio = ratios[1 << bit]
        if abs(ratio - 1) <= atol:
            zbit = 0
        elif abs(ratio + 1) <= atol:
            zbit = 1
        else:
            return NotPauli
        letters.append({(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}[(xbit, zbit)])
    candidate = PauliString("".join(letters))
    mc = pauli_matrix(candidate)
    phase_est = m[r, 0] / mc[r, 0]
    phase = min(_PHASES, key=lambda p: abs(phase_est - p))
    if abs(phase_est - phase) > atol:
        return NotPauli
    if np.abs(m - phase * mc).max() > atol:
        return NotPauli
    return PauliString(candidate.letters, phase)


def conjugate_pauli(g: np.ndarray, p: PauliString, atol: float = ATOL_ORACLE):
    """Return ``q`` with ``pauli_matrix(q) = g pauli_matrix(p) g^dag``, or NotPauli.

    The exact phase is tracked.  NotPauli is an informative result (the
    conjugation left the signed-Pauli set), not an error.
    """
    g = np.asarray(g, dtype=complex)
    if g.shape != (2 ** p.n, 2 ** p.n):
        raise ValueError(f"operator dimension {g.shape} does not match {p.n} qubits")
    m = g @ pauli_matrix(p) @ g.conj().T
    return _decode_signed_pauli(m, atol)


def distance_up_to_phase(a: np.ndarray, b: np.ndarray) -> float:
    """``max_ij |a_ij - c b_ij|`` with ``b`` aligned to ``a`` by its overlap phase.

    ``c = tr(b^dag a) / |tr(b^dag a)|``, or 1 when the trace vanishes.  The
    value is zero exactly when the operands agree up to a global phase, and
    it is never below ``min_c max_ij |a_ij - c b_ij|`` over unit phases.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    tr = complex(np.vdot(b, a))
    c = tr / abs(tr) if tr else 1.0
    return float(np.abs(a - c * b).max())


def embed(u: np.ndarray, qubits, n: int) -> np.ndarray:
    """Lift a k-qubit operator onto the given wires of an n-qubit register.

    ``qubits`` lists the register wires carrying the operator's tensor factors
    in order; remaining wires receive the identity.
    """
    u = np.asarray(u, dtype=complex)
    qubits = list(qubits)
    if n > MAX_QUBITS:
        raise CapacityError(f"{n} qubits exceeds the {MAX_QUBITS}-qubit capacity")
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"duplicate wires in {qubits}")
    if any(not 0 <= q < n for q in qubits):
        raise ValueError(f"wires {qubits} out of range for {n} qubits")
    k = len(qubits)
    if u.shape != (2 ** k, 2 ** k):
        raise ValueError(f"operator shape {u.shape} does not match {k} wires")
    return apply_local(np.eye(2 ** n, dtype=complex), u, qubits)


def apply_local(columns: np.ndarray, u: np.ndarray, wires) -> np.ndarray:
    """``embed(u, wires, n) @ columns`` for a ``(2^n, R)`` block, without the embedding.

    The column states are viewed as an ``(2,) * n + (R,)`` tensor with qubit 0
    as the most significant bit of a row index.  One transpose by a
    permutation built from ``wires`` puts the wire axes first, in order, and
    keeps the other axes in theirs; one product with the 2^k x 2^k matrix
    ``u`` acts on them; the inverse permutation puts them back.  This is the
    one place that decides how a local matrix lands on register wires.  The
    input block is not modified.  Wires are not validated: they must be
    distinct and in ``range(n)``.
    """
    dim, r = columns.shape
    n = dim.bit_length() - 1
    k = len(wires)
    perm = (*wires, *(a for a in range(n + 1) if a not in wires))
    inverse = [0] * (n + 1)
    for position, axis in enumerate(perm):
        inverse[axis] = position
    t = columns.reshape((2,) * n + (r,)).transpose(perm)
    t = (u @ t.reshape(2 ** k, -1)).reshape(t.shape)
    return t.transpose(inverse).reshape(dim, r)
