"""Pauli algebra, closed-form rotations, conjugation decoding, and embedding."""

import math
from itertools import permutations

import numpy as np
import pytest
from scipy.linalg import expm

from errorient.qmat import (ATOL_ORACLE, ATOL_STRUCT, CapacityError, NotPauli,
                            PauliString, apply_local, conjugate_pauli,
                            distance_up_to_phase, embed, pauli_matrix, rot,
                            rot_blend, third_axis)
from support import is_unitary

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = (X + Z) / math.sqrt(2)
S = np.diag([1, 1j]).astype(complex)
T = np.diag([1, np.exp(1j * math.pi / 4)]).astype(complex)
CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)


def random_pauli(rng, n):
    letters = "".join(rng.choice(list("IXYZ")) for _ in range(n))
    if set(letters) == {"I"}:
        letters = letters[:-1] + "X"
    return PauliString(letters)


# ---------------------------------------------------------------------------
# Kronecker order of the register / pauli_matrix
# ---------------------------------------------------------------------------

def test_kron_identity():
    for wires in ([0], [2], [1, 0], [0, 1, 2]):
        np.testing.assert_allclose(embed(np.eye(2 ** len(wires)), wires, 3),
                                   np.kron(np.kron(I2, I2), I2))


def test_kron_xx_antidiagonal():
    expected = np.fliplr(np.eye(4))
    np.testing.assert_allclose(embed(X, [0], 2) @ embed(X, [1], 2), expected)
    np.testing.assert_allclose(np.kron(X, X), expected)


def test_kron_zz_diagonal():
    # qubit 0 is the leftmost factor: Z on it flips the sign of the upper half
    np.testing.assert_allclose(embed(Z, [0], 2), np.kron(Z, I2))
    np.testing.assert_allclose(embed(Z, [0], 2) @ embed(Z, [1], 2),
                               np.diag([1, -1, -1, 1]))


def test_pauli_matrix_y():
    np.testing.assert_allclose(pauli_matrix(PauliString("Y")), Y)


def test_pauli_matrix_negative_ix():
    np.testing.assert_allclose(pauli_matrix(PauliString("IX", -1)), -np.kron(I2, X))


def test_pauli_matrix_i_zz():
    np.testing.assert_allclose(pauli_matrix(PauliString("ZZ", 1j)),
                               1j * np.diag([1, -1, -1, 1]))


# ---------------------------------------------------------------------------
# PauliString algebra
# ---------------------------------------------------------------------------

def test_pauli_string_validation():
    with pytest.raises(ValueError):
        PauliString("XQ")
    with pytest.raises(ValueError):
        PauliString("")
    with pytest.raises(ValueError):
        PauliString("X", phase=0.5)
    with pytest.raises(CapacityError):
        PauliString("X" * 7)


@pytest.mark.parametrize("a", list("IXYZ"))
@pytest.mark.parametrize("b", list("IXYZ"))
def test_single_letter_products_match_matrices(a, b):
    prod = PauliString(a) * PauliString(b)
    np.testing.assert_allclose(pauli_matrix(prod),
                               pauli_matrix(PauliString(a)) @ pauli_matrix(PauliString(b)),
                               atol=1e-15)


def test_multi_qubit_products_match_matrices():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        p, q = random_pauli(rng, n), random_pauli(rng, n)
        np.testing.assert_allclose(pauli_matrix(p * q),
                                   pauli_matrix(p) @ pauli_matrix(q), atol=1e-14)


def test_anticommutes_matches_matrices():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        p, q = random_pauli(rng, n), random_pauli(rng, n)
        anti = np.abs(pauli_matrix(p) @ pauli_matrix(q)
                      + pauli_matrix(q) @ pauli_matrix(p)).max() < 1e-12
        assert p.anticommutes(q) == anti


def test_third_axis_single_qubit():
    assert third_axis(PauliString("X"), PauliString("Y")) == PauliString("Z")


def test_third_axis_two_qubit():
    assert third_axis(PauliString("XX"), PauliString("YX")) == PauliString("ZI")
    # -i (XX)(ZX) = -YI
    assert third_axis(PauliString("XX"), PauliString("ZX")) == PauliString("YI", -1)


def test_third_axis_requires_anticommuting():
    with pytest.raises(ValueError):
        third_axis(PauliString("XX"), PauliString("XX"))


# ---------------------------------------------------------------------------
# rot / rot_blend
# ---------------------------------------------------------------------------

def test_rot_zero_angle():
    np.testing.assert_allclose(rot(PauliString("Z"), 0.0), I2)


def test_rot_half_turn():
    np.testing.assert_allclose(rot(PauliString("X"), math.pi), -1j * X, atol=1e-15)


def test_rot_xx_quarter_vs_expm():
    got = rot(PauliString("XX"), math.pi / 2)
    oracle = expm(-1j * (math.pi / 4) * np.kron(X, X))
    assert np.abs(got - oracle).max() < 1e-10
    np.testing.assert_allclose(got, (np.eye(4) - 1j * np.kron(X, X)) / math.sqrt(2),
                               atol=1e-12)


def test_rot_rejects_phased_generator():
    with pytest.raises(ValueError):
        rot(PauliString("Z", -1), 0.3)


def test_rot_group_law():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        p = random_pauli(rng, n)
        th, ph = rng.uniform(-2 * math.pi, 2 * math.pi, size=2)
        lhs = rot(p, th) @ rot(p, ph)
        rhs = rot(p, th + ph)
        assert np.abs(lhs - rhs).max() < ATOL_STRUCT


def test_rot_blend_degenerate_angles():
    x, y = PauliString("X"), PauliString("Y")
    np.testing.assert_allclose(rot_blend(x, y, 0.0, 1.1), rot(x, 1.1), atol=1e-15)
    np.testing.assert_allclose(rot_blend(x, y, math.pi / 2, 1.1), rot(y, 1.1), atol=1e-15)
    xx, yx = PauliString("XX"), PauliString("YX")
    np.testing.assert_allclose(rot_blend(xx, yx, 0.0, 0.7), rot(xx, 0.7), atol=1e-15)
    np.testing.assert_allclose(rot_blend(xx, yx, math.pi / 2, 0.7), rot(yx, 0.7), atol=1e-15)


def test_rot_blend_diagonal_axis():
    got = rot_blend(PauliString("X"), PauliString("Y"), math.pi / 4, math.pi)
    np.testing.assert_allclose(got, -1j * (X + Y) / math.sqrt(2), atol=1e-12)
    oracle = expm(-1j * (math.pi / 2) * (X + Y) / math.sqrt(2))
    assert np.abs(got - oracle).max() < 1e-10


def test_rot_blend_rejects_commuting_pair():
    with pytest.raises(ValueError):
        rot_blend(PauliString("XX"), PauliString("YY"), 0.3, 0.5)


def test_rot_blend_accepts_negated_generator():
    # -a2 is Hermitian, and blending towards it is blending at -phi
    xx, yx = PauliString("XX"), PauliString("YX")
    for phi in (0.4, math.acos(-1 / 8)):
        got = rot_blend(xx, PauliString("YX", -1), phi, 1.3)
        np.testing.assert_allclose(got, rot_blend(xx, yx, -phi, 1.3), atol=1e-15)
    for phase in (1j, -1j):
        with pytest.raises(ValueError, match="Hermitian"):
            rot_blend(xx, PauliString("YX", phase), 0.4, 1.3)
        with pytest.raises(ValueError, match="Hermitian"):
            rot_blend(PauliString("XX", phase), yx, 0.4, 1.3)


def test_rot_blend_vs_expm_random():
    rng = np.random.default_rng(17)
    done = 0
    while done < 100:
        n = int(rng.integers(1, 4))
        a1, a2 = random_pauli(rng, n), random_pauli(rng, n)
        if not a1.anticommutes(a2):
            continue
        phi = rng.uniform(0, 2 * math.pi)
        th = rng.uniform(-2 * math.pi, 2 * math.pi)
        axis = math.cos(phi) * pauli_matrix(a1) + math.sin(phi) * pauli_matrix(a2)
        oracle = expm(-1j * (th / 2) * axis)
        assert np.abs(rot_blend(a1, a2, phi, th) - oracle).max() < ATOL_ORACLE
        done += 1


def test_returned_unitaries_are_unitary():
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        p = random_pauli(rng, n)
        assert is_unitary(rot(p, rng.uniform(-7, 7)))
        assert is_unitary(pauli_matrix(p))


# ---------------------------------------------------------------------------
# conjugate_pauli
# ---------------------------------------------------------------------------

def test_conjugate_hadamard_x_to_z():
    assert conjugate_pauli(H, PauliString("X")) == PauliString("Z")


def test_conjugate_cnot_xi_to_xx():
    result = conjugate_pauli(CNOT, PauliString("XI"))
    oracle = CNOT @ pauli_matrix(PauliString("XI")) @ CNOT.conj().T
    assert result is not NotPauli
    np.testing.assert_allclose(pauli_matrix(result), oracle, atol=1e-12)
    assert result == PauliString("XX")


def test_conjugate_t_x_not_pauli():
    assert conjugate_pauli(T, PauliString("X")) is NotPauli


def _all_pauli_strings(n):
    from itertools import product as iproduct
    for letters in iproduct("IXYZ", repeat=n):
        s = "".join(letters)
        if set(s) != {"I"}:
            yield PauliString(s)


@pytest.mark.parametrize("gate,n", [
    (H, 1), (S, 1), (CNOT, 2),
    (np.kron(H, I2), 2), (np.kron(I2, S), 2),
])
def test_conjugate_pauli_clifford_generators(gate, n):
    # exact phase tracked: compare matrices, not just letters
    for p in _all_pauli_strings(n):
        result = conjugate_pauli(gate, p)
        oracle = gate @ pauli_matrix(p) @ gate.conj().T
        assert result is not NotPauli, f"{p} unexpectedly NotPauli"
        np.testing.assert_allclose(pauli_matrix(result), oracle, atol=1e-12)


def test_conjugate_tracks_negative_phase():
    # H Y H = -Y
    assert conjugate_pauli(H, PauliString("Y")) == PauliString("Y", -1)


# ---------------------------------------------------------------------------
# distance_up_to_phase
# ---------------------------------------------------------------------------

def test_distance_identical():
    u = rot(PauliString("XY"), 0.7)
    assert distance_up_to_phase(u, u) < 1e-14


def test_distance_global_phase():
    u = rot(PauliString("XY"), 0.7)
    assert distance_up_to_phase(u, -u) < 1e-13
    assert distance_up_to_phase(u, 1j * u) < 1e-13
    rng = np.random.default_rng(5)
    w, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
    phi = rng.uniform(0, 2 * math.pi)
    assert distance_up_to_phase(w, np.exp(1j * phi) * w) < 1e-14


def test_distance_identity_vs_small_z():
    got = distance_up_to_phase(I2, rot(PauliString("Z"), 0.2))
    assert abs(got - 2 * math.sin(0.05)) < 1e-9
    # independent oracle: scan of 1e4 phases
    b = rot(PauliString("Z"), 0.2)
    scan = min(np.abs(I2 - np.exp(1j * t) * b).max()
               for t in np.linspace(0, 2 * math.pi, 10_000))
    assert abs(got - scan) < 1e-6
    assert got <= scan + 1e-12


def test_distance_dim_mismatch():
    with pytest.raises(ValueError):
        distance_up_to_phase(I2, np.eye(4, dtype=complex))


# ---------------------------------------------------------------------------
# embed
# ---------------------------------------------------------------------------

def test_embed_single_qubit_placement():
    np.testing.assert_allclose(embed(X, [1], 2), np.kron(I2, X))
    np.testing.assert_allclose(embed(X, [0], 2), np.kron(X, I2))


def test_embed_cnot_waps_wires():
    got = embed(CNOT, [1, 0], 2)
    # control on wire 1, target on wire 0
    expected = np.zeros((4, 4), dtype=complex)
    for c in range(2):
        for t in range(2):
            src = (t << 1) | c
            dst = ((t ^ c) << 1) | c
            expected[dst, src] = 1
    np.testing.assert_allclose(got, expected)


def test_embed_matches_pauli_matrix():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(2, 5))
        q = int(rng.integers(0, n))
        letters = ["I"] * n
        letters[q] = "Y"
        np.testing.assert_allclose(embed(Y, [q], n),
                                   pauli_matrix(PauliString("".join(letters))),
                                   atol=1e-14)


def test_embed_preserves_unitarity():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, _ = np.linalg.qr(a)
    assert is_unitary(embed(q, [2, 0], 3))


def test_apply_local_matches_bitwise_oracle():
    # the register matrix entry by entry: <i|U|j> is the local entry between
    # the wire bits of i and j when i and j agree off the wires, else 0
    rng = np.random.default_rng(17)
    cases = [(n, [q]) for n in range(1, 5) for q in range(n)]
    cases += [(n, list(pair)) for n in range(2, 5) for pair in permutations(range(n), 2)]
    cases += [(6, [5, 0]), (6, [2])]
    for n, wires in cases:
        rest = [q for q in range(n) if q not in wires]

        def bits(i, qs):
            return sum(((i >> (n - 1 - q)) & 1) << (len(qs) - 1 - m) for m, q in enumerate(qs))

        dim, local = 2 ** n, 2 ** len(wires)
        u = rng.normal(size=(local, local)) + 1j * rng.normal(size=(local, local))
        full = np.zeros((dim, dim), dtype=complex)
        for i in range(dim):
            for j in range(dim):
                if bits(i, rest) == bits(j, rest):
                    full[i, j] = u[bits(i, wires), bits(j, wires)]
        wide = rng.normal(size=(dim, 6)) + 1j * rng.normal(size=(dim, 6))
        # contiguous blocks of 1 and 3 columns, a strided column slice and a
        # Fortran-ordered copy
        for cols in (wide[:, :1].copy(), wide[:, :3].copy(), wide[:, ::2],
                     np.asfortranarray(wide[:, 3:])):
            before = cols.copy()
            np.testing.assert_allclose(apply_local(cols, u, wires), full @ before, atol=1e-12)
            np.testing.assert_array_equal(cols, before)
        np.testing.assert_allclose(embed(u, wires, n), full)


def test_embed_validates():
    with pytest.raises(ValueError):
        embed(X, [0, 0], 2)
    with pytest.raises(ValueError):
        embed(X, [3], 2)
    with pytest.raises(ValueError):
        embed(np.ones((2, 3)), [0], 2)
    with pytest.raises(CapacityError):
        embed(X, [0], 7)
