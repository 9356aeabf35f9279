"""The package's public surface: every exported name is listed here."""

import types

import errorient

PUBLIC = [
    "Assignment", "CANONICAL_WINDOW", "CapacityError", "Circuit", "ErrorModel",
    "GateOp", "NotPauli", "Opaque", "OrientationPlan",
    "PauliString", "PulseVariant", "Sk1Params", "SweepConfig", "SweepRecord",
    "TEXTBOOK_CNOT", "build_bv", "build_pea", "build_toffoli",
    "circuit_infidelity", "circuit_unitary", "conjugate_pauli",
    "distance_up_to_phase", "emit_csv", "find_conjugate_pairs", "fit_slope",
    "format_circuit", "gate_infidelity", "ideal_toffoli",
    "op_core", "pair_cancel", "parse_circuit", "pauli_matrix", "plan_circuit",
    "rot", "run_sweep", "simulate", "sk1", "third_axis",
    "trace_orientation", "with_variants",
]


def test_public_names_are_pinned():
    # growing or shrinking the exported surface takes a deliberate edit here
    exported = sorted(name for name, value in vars(errorient).items()
                      if not name.startswith("_")
                      and not isinstance(value, types.ModuleType))
    assert exported == sorted(PUBLIC)
