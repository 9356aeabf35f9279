"""Composite-pulse two-qubit gates with controllable residual-error orientation.

The package builds CNOT pulse sequences whose leading coherent error is a
single-qubit rotation with a selectable axis, simulates small circuits exactly
under a systematic overrotation of the entangling pulses, and provides the
compilation passes and sweep harness that demonstrate how error orientation
moves circuit fidelity by orders of magnitude at fixed gate fidelity.
"""

from .circuit import (Circuit, GateOp, build_bv, build_pea, build_toffoli,
                      circuit_infidelity, circuit_unitary, format_circuit,
                      ideal_toffoli, op_core, parse_circuit, simulate,
                      with_variants)
from .gates import (TEXTBOOK_CNOT, ErrorModel, PulseVariant, Sk1Params,
                    gate_infidelity, sk1)
from .orient import (Assignment, Opaque, OrientationPlan, find_conjugate_pairs,
                     pair_cancel, plan_circuit, trace_orientation)
from .qmat import (CapacityError, NotPauli, PauliString, conjugate_pauli,
                   distance_up_to_phase, pauli_matrix, rot, third_axis)
from .sweep import (CANONICAL_WINDOW, SweepConfig, SweepRecord, emit_csv,
                    fit_slope, run_sweep)

__version__ = "0.1.0"
