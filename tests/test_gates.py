"""Noisy rotations, the compensating sequence, CNOT variants, gate infidelity."""

import math

import numpy as np
import pytest

from errorient.gates import (_CORRECTION_AXIS, EPS_LIMIT, TEXTBOOK_CNOT, ErrorModel,
                             PulseVariant, Sk1Params, cnot_variant, gate_infidelity,
                             noisy_rot, residual_axis, sk1)
from errorient.qmat import (PauliString, distance_up_to_phase, pauli_matrix, rot,
                            third_axis)
from support import is_unitary

XX = PauliString("XX")
EPS_GRID = np.geomspace(1e-3, 1e-2, 7)
SK1_VARIANTS = (PulseVariant.SK1_XI, PulseVariant.SK1_MXI,
                PulseVariant.SK1_YI, PulseVariant.SK1_IY)
ALL_VARIANTS = (PulseVariant.NAIVE,) + SK1_VARIANTS


def fit(xs, ys):
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def test_error_model_bound():
    ErrorModel(0.49)
    ErrorModel(-0.49)
    with pytest.raises(ValueError):
        ErrorModel(EPS_LIMIT)
    with pytest.raises(ValueError):
        ErrorModel(-0.6)


def test_sk1_params():
    p = Sk1Params.for_angle(math.pi / 2)
    assert math.isclose(p.phi_sk1, math.acos(-1 / 8))
    assert math.isclose(p.beta, 4 * math.pi ** 2 * math.sin(p.phi_sk1) * math.cos(p.phi_sk1))
    with pytest.raises(ValueError):
        Sk1Params.for_angle(0.0)
    with pytest.raises(ValueError):
        Sk1Params.for_angle(4 * math.pi)


# ---------------------------------------------------------------------------
# noisy_rot
# ---------------------------------------------------------------------------

def test_noisy_rot_zero_error():
    np.testing.assert_allclose(noisy_rot(XX, math.pi / 2, ErrorModel(0.0)),
                               rot(XX, math.pi / 2))


def test_noisy_rot_scales_angle():
    eps = 0.07
    np.testing.assert_allclose(noisy_rot(XX, math.pi / 2, ErrorModel(eps)),
                               rot(XX, (math.pi / 2) * (1 + eps)))


def test_noisy_full_turn_leaks():
    # a 2pi pulse at eps=0.1 lands at 2.2pi, visibly away from +-identity
    got = noisy_rot(XX, 2 * math.pi, ErrorModel(0.1))
    np.testing.assert_allclose(got, rot(XX, 2.2 * math.pi), atol=1e-12)
    assert distance_up_to_phase(got, np.eye(4, dtype=complex)) > 0.3


# ---------------------------------------------------------------------------
# sk1
# ---------------------------------------------------------------------------

def test_sk1_noiseless_collapse():
    for theta in (0.3, math.pi / 2, math.pi):
        got = sk1(XX, PauliString("YX"), theta, ErrorModel(0.0))
        assert distance_up_to_phase(got, rot(XX, theta)) < 1e-12


def test_sk1_angle_range():
    with pytest.raises(ValueError):
        sk1(XX, PauliString("YX"), 0.0, ErrorModel(0.01))
    with pytest.raises(ValueError):
        sk1(XX, PauliString("YX"), 4 * math.pi, ErrorModel(0.01))


def test_sk1_gate_infidelity_quartic():
    ideal = rot(XX, math.pi / 2)
    ys = [gate_infidelity(ideal, sk1(XX, PauliString("YX"), math.pi / 2, ErrorModel(e)))
          for e in EPS_GRID]
    assert abs(fit(EPS_GRID, ys) - 4.0) <= 0.1


def test_sk1_residual_rotation():
    # residual = rot(third_axis, beta * eps^2) up to third order
    theta = math.pi / 2
    params = Sk1Params.for_angle(theta)
    a2 = PauliString("YX")
    a3 = third_axis(XX, a2)
    ideal = rot(XX, theta)
    dists = []
    for eps in EPS_GRID:
        resid = sk1(XX, a2, theta, ErrorModel(eps)) @ ideal.conj().T
        expected = rot(PauliString(a3.letters), a3.phase.real * params.beta * eps ** 2)
        dists.append(distance_up_to_phase(resid, expected))
    assert fit(EPS_GRID, dists) >= 2.95


# ---------------------------------------------------------------------------
# cnot_variant
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_cnot_variant_noiseless(variant):
    got = cnot_variant(variant, 0, 1, ErrorModel(0.0), 2)
    assert distance_up_to_phase(got, TEXTBOOK_CNOT) < 1e-12


def test_cnot_variant_validates_wires():
    with pytest.raises(ValueError):
        cnot_variant(PulseVariant.NAIVE, 1, 1, ErrorModel(0.0), 2)
    with pytest.raises(ValueError):
        cnot_variant(PulseVariant.NAIVE, 0, 3, ErrorModel(0.0), 2)


def test_naive_gate_fidelity_closed_form():
    # residual of the naive gate is a quarter-strength overrotation:
    # U^dag V = rot(XX', pi eps / 2), so 1 - F = sin^2(pi eps / 4)
    for eps in (0.01, 0.05, 0.2):
        applied = cnot_variant(PulseVariant.NAIVE, 0, 1, ErrorModel(eps), 2)
        got = gate_infidelity(TEXTBOOK_CNOT, applied)
        assert abs(got - math.sin(math.pi * eps / 4) ** 2) < 1e-12


def test_cnot_variants_unitary_at_random_eps():
    rng = np.random.default_rng(31)
    for variant in ALL_VARIANTS:
        for eps in rng.uniform(-0.2, 0.2, size=20):
            assert is_unitary(cnot_variant(variant, 0, 1, ErrorModel(float(eps)), 2))


def test_sk1_fidelity_equality():
    for eps in (1e-3, 1e-2, 0.1):
        vals = [gate_infidelity(TEXTBOOK_CNOT, cnot_variant(v, 0, 1, ErrorModel(eps), 2))
                for v in SK1_VARIANTS]
        assert max(vals) - min(vals) < 1e-12


def test_adjoint_identity():
    for eps in (1e-3, 0.05, 0.2):
        xi = cnot_variant(PulseVariant.SK1_XI, 0, 1, ErrorModel(eps), 2)
        mxi = cnot_variant(PulseVariant.SK1_MXI, 0, 1, ErrorModel(eps), 2)
        np.testing.assert_allclose(mxi, xi.conj().T, atol=1e-15)
        assert np.abs(mxi @ xi - np.eye(4)).max() < 1e-12


def test_gate_scaling_exponents():
    logs = np.log(EPS_GRID)
    naive = [gate_infidelity(TEXTBOOK_CNOT,
                             cnot_variant(PulseVariant.NAIVE, 0, 1, ErrorModel(float(e)), 2))
             for e in EPS_GRID]
    assert abs(fit(EPS_GRID, naive) - 2.0) <= 0.1
    for variant in SK1_VARIANTS:
        ys = [gate_infidelity(TEXTBOOK_CNOT,
                              cnot_variant(variant, 0, 1, ErrorModel(float(e)), 2))
              for e in EPS_GRID]
        assert abs(fit(EPS_GRID, ys) - 4.0) <= 0.1


_PAULI2 = [a + b for a in "IXYZ" for b in "IXYZ"][1:]


def _residual_coefficients(variant, eps):
    """Pauli coefficients of the post-gate residual, global phase stripped."""
    applied = cnot_variant(variant, 0, 1, ErrorModel(eps), 2)
    resid = applied @ TEXTBOOK_CNOT.conj().T
    c_i = np.trace(resid) / 4
    resid = resid * np.conj(c_i) / abs(c_i)
    return {s: complex(np.trace(pauli_matrix(PauliString(s)).conj().T @ resid) / 4)
            for s in _PAULI2}


@pytest.mark.parametrize("variant,axis", [(v, residual_axis(v).letters)
                                           for v in _CORRECTION_AXIS])
def test_residual_orientation(variant, axis):
    # dominant residual generator is the derived single-qubit Pauli, rotated
    # by beta eps^2 about its signed axis (coefficient -i sign beta eps^2 / 2),
    # and the rest decays at least one order faster
    sign_beta = residual_axis(variant).phase.real * Sk1Params.for_angle(math.pi / 2).beta
    others_by_eps = []
    for eps in EPS_GRID:
        coeffs = _residual_coefficients(variant, float(eps))
        dominant = max(coeffs, key=lambda s: abs(coeffs[s]))
        assert dominant == axis
        assert coeffs[axis].imag * sign_beta < 0
        others_by_eps.append(max(abs(c) for s, c in coeffs.items() if s != axis))
    dominant_slope = fit(EPS_GRID, [abs(_residual_coefficients(variant, float(e))[axis])
                                    for e in EPS_GRID])
    assert abs(dominant_slope - 2.0) <= 0.1
    assert fit(EPS_GRID, others_by_eps) >= 2.9


def test_mxi_residual_is_opposite():
    # the adjoint variant carries the opposite-sign X rotation before the
    # gate: post-frame for SK1_XI, pre-frame for SK1_MXI
    eps = 5e-3
    xi = _residual_coefficients(PulseVariant.SK1_XI, eps)["XI"]
    mxi_gate = cnot_variant(PulseVariant.SK1_MXI, 0, 1, ErrorModel(eps), 2)
    pre_resid = TEXTBOOK_CNOT.conj().T @ mxi_gate
    c_i = np.trace(pre_resid) / 4
    pre_resid = pre_resid * np.conj(c_i) / abs(c_i)
    mxi = complex(np.trace(pauli_matrix(PauliString("XI")).conj().T @ pre_resid) / 4)
    assert abs(xi + mxi) < abs(xi) * 1e-3


# ---------------------------------------------------------------------------
# gate_infidelity
# ---------------------------------------------------------------------------

def test_gate_fidelity_identity():
    u = rot(PauliString("ZZ"), 1.3)
    assert gate_infidelity(u, u) == pytest.approx(0.0, abs=1e-15)


def test_gate_fidelity_phase_invariant():
    u = rot(PauliString("ZZ"), 1.3)
    assert gate_infidelity(u, np.exp(0.7j) * u) == pytest.approx(0.0, abs=1e-12)


def test_gate_fidelity_hadamard_x_error():
    h = (pauli_matrix(PauliString("X")) + pauli_matrix(PauliString("Z"))) / math.sqrt(2)
    for eps in (0.05, 0.3):
        applied = rot(PauliString("X"), eps) @ h
        assert abs(gate_infidelity(h, applied) - math.sin(eps / 2) ** 2) < 1e-12


@pytest.mark.parametrize("generator", ["ZI", "IIZ"])
@pytest.mark.parametrize("delta", [1e-3, 1e-6, 1e-9])
def test_gate_infidelity_resolves_tiny_rotations(generator, delta):
    # 1 - |tr/d|^2 loses everything below ~1e-16; the sum of squares keeps
    # full relative precision on 4x4 (CNOT) and 8x8 (Toffoli) operators.
    p = PauliString(generator)
    ident = np.eye(2 ** p.n, dtype=complex)
    got = gate_infidelity(ident, rot(p, delta))
    want = math.sin(delta / 2) ** 2
    assert abs(got - want) <= 1e-9 * want


def test_gate_fidelity_dim_mismatch():
    with pytest.raises(ValueError):
        gate_infidelity(np.eye(2, dtype=complex), np.eye(4, dtype=complex))
