"""Ideal, noisy, and composite-pulse-corrected gates, and gate infidelity.

The error model is a single systematic overrotation: the angle of every XX
pulse inside a CNOT is scaled by ``(1 + epsilon)`` while single-qubit
rotations stay perfect, so CNOTs are the only gates that feel it.  Every CNOT
variant wraps one XX(pi/2) pulse between fixed single-qubit layers.  The
corrected variants make that pulse the compensating sequence :func:`sk1` and
differ only in its correction axis, which alone sets the axis of the leading
residual (:func:`residual_axis`): X or Y on the control, or Y on the target.
Gate infidelity is the squared Frobenius distance of the residual from its
nearest multiple of the identity, a sum of squares with no cancellation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .qmat import PauliString, conjugate_pauli, embed, rot, rot_blend, third_axis

EPS_LIMIT = 0.5

TEXTBOOK_CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)

_XX = PauliString("XX")
_W1 = rot(PauliString("YI"), math.pi / 2)
_W2 = (rot(PauliString("ZI"), -math.pi / 2)
       @ rot(PauliString("YI"), -math.pi / 2)
       @ rot(PauliString("IX"), -math.pi / 2))


@dataclass(frozen=True)
class ErrorModel:
    """Systematic fractional overrotation of the XX pulse angles inside every CNOT."""

    epsilon: float = 0.0

    def __post_init__(self):
        if not abs(self.epsilon) < EPS_LIMIT:
            raise ValueError(
                f"|epsilon| must be below {EPS_LIMIT} for the perturbative model, "
                f"got {self.epsilon}"
            )


class PulseVariant(str, Enum):
    """Pulse sequences realising the same ideal CNOT with different residual axes."""

    NAIVE = "naive"
    SK1_XI = "sk1_xi"    # residual: X rotation on the control
    SK1_MXI = "sk1_mxi"  # exact adjoint of SK1_XI (opposite-sign residual)
    SK1_YI = "sk1_yi"    # residual: Y rotation on the control
    SK1_IY = "sk1_iy"    # residual: Y rotation on the target

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class Sk1Params:
    """Derived parameters of the first-order compensating sequence for angle theta."""

    theta: float
    phi_sk1: float
    beta: float

    @classmethod
    def for_angle(cls, theta: float) -> "Sk1Params":
        if not 0 < theta < 4 * math.pi:
            raise ValueError(f"theta must lie in (0, 4*pi), got {theta}")
        phi = math.acos(-theta / (4 * math.pi))
        beta = 4 * math.pi ** 2 * math.sin(phi) * math.cos(phi)
        return cls(theta=theta, phi_sk1=phi, beta=beta)


def noisy_rot(generator: PauliString, theta: float, err: ErrorModel) -> np.ndarray:
    """The attempted rotation: ``rot(generator, theta * (1 + epsilon))``."""
    return rot(generator, theta * (1 + err.epsilon))


def sk1(a1: PauliString, a2: PauliString, theta: float, err: ErrorModel) -> np.ndarray:
    """First-order compensating sequence for a noisy rotation about ``a1``.

    Product of three noisy pulses: the theta pulse about ``a1`` followed by two
    full-cycle pulses about axes blended at ``+/- phi_sk1`` in the a1-a2 plane.
    All three pulse angles carry the same ``(1 + epsilon)`` scaling.  The
    leading residual is ``rot(third_axis(a1, a2), beta * epsilon^2)`` up to
    third order in epsilon.
    """
    params = Sk1Params.for_angle(theta)
    scale = 1 + err.epsilon
    corr_minus = rot_blend(a1, a2, -params.phi_sk1, 2 * math.pi * scale)
    corr_plus = rot_blend(a1, a2, +params.phi_sk1, 2 * math.pi * scale)
    return corr_minus @ corr_plus @ noisy_rot(a1, theta, err)


# Correction axis of each corrected variant's XX(pi/2) pulse, in the order the
# measurement pass prefers them.  This table is the only orientation fact.
_CORRECTION_AXIS = {
    PulseVariant.SK1_XI: PauliString("ZX"),
    PulseVariant.SK1_YI: PauliString("YX", -1),
    PulseVariant.SK1_IY: PauliString("XY", -1),
}


def residual_axis(variant: PulseVariant) -> PauliString:
    """Signed axis of a corrected variant's leading residual, after the gate.

    The gate is ``rot(axis, beta * epsilon^2)`` times the ideal CNOT, up to
    third order, on (control, target): the pulse's residual axis
    ``third_axis(XX, correction)`` carried through the wrapper ``_W2``.
    """
    return conjugate_pauli(_W2, third_axis(_XX, _CORRECTION_AXIS[variant]))


@lru_cache(maxsize=4096)
def _cnot_core(variant: PulseVariant, epsilon: float) -> np.ndarray:
    """Two-qubit CNOT realisation on (control, target) = (qubit 0, qubit 1)."""
    err = ErrorModel(epsilon)
    if variant is PulseVariant.NAIVE:
        core = _W2 @ noisy_rot(_XX, math.pi / 2, err) @ _W1
    elif variant is PulseVariant.SK1_MXI:
        core = _cnot_core(PulseVariant.SK1_XI, epsilon).conj().T
    else:
        core = _W2 @ sk1(_XX, _CORRECTION_AXIS[variant], math.pi / 2, err) @ _W1
    core.flags.writeable = False
    return core


def cnot_variant(variant: PulseVariant, control: int, target: int,
                 err: ErrorModel, n: int) -> np.ndarray:
    """Full n-qubit unitary of a pulse-sequence CNOT on (control, target).

    Single-qubit wrapper rotations are perfect; only the XX pulses are
    scaled by ``(1 + epsilon)``.
    """
    return embed(_cnot_core(PulseVariant(variant), err.epsilon), [control, target], n)


def gate_infidelity(ideal: np.ndarray, applied: np.ndarray) -> float:
    """Entanglement infidelity ``1 - |tr(ideal^dag applied) / d|^2``, summed as squares.

    With ``W = ideal^dag applied`` and ``t = tr W / d`` the value is
    ``||W - t I||_F^2 / d``, which equals ``1 - |t|^2`` for unitary ``W`` but
    subtracts nothing near 1, so it stays accurate far below 1e-16.
    Invariant under a global phase of either operand.
    """
    ideal = np.asarray(ideal, dtype=complex)
    applied = np.asarray(applied, dtype=complex)
    if ideal.shape != applied.shape:
        raise ValueError(f"dimension mismatch: {ideal.shape} vs {applied.shape}")
    d = ideal.shape[0]
    w = (ideal.conj().T @ applied).ravel()
    w[::d + 1] -= np.vdot(ideal, applied) / d
    return float(np.vdot(w, w).real / d)
