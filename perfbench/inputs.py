"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of the seed.  The program under test only
ever sees what these generators produce: sweep configurations with fresh
epsilon grids, CLI argument lists, and circuit text for the planner.
"""

from __future__ import annotations

import math
import random

import numpy as np

from errorient import circuit as ecircuit

STRATEGIES = ("naive", "sk1_xi", "sk1_yi", "sk1_iy", "sk1_pair")

#: Grid length of one sweep-pea call.  Long enough that per-point work
#: dominates per-call overhead (pool start-up included), short enough that a
#: run holds more than ten calls, so a latency tail exists.
PEA_POINTS = 32

#: The CLI's default grid length.
CLI_POINTS = 25


class FreshEpsilon:
    """Draws log-uniform epsilon windows whose grids share no value with any
    earlier grid of this process.

    The pulse-core cache is keyed on the float epsilon, and every
    ``errorient sweep`` invocation starts with that cache empty, so a timed
    sweep must never revisit an epsilon.
    """

    def __init__(self, rng: random.Random, lo: tuple[float, float],
                 hi: tuple[float, float], points: int):
        self.rng = rng
        self.lo = lo
        self.hi = hi
        self.points = points
        self.seen: set[float] = set()

    def _log_uniform(self, bounds):
        a, b = bounds
        return math.exp(self.rng.uniform(math.log(a), math.log(b)))

    def next(self) -> tuple[float, float]:
        while True:
            eps_min, eps_max = self._log_uniform(self.lo), self._log_uniform(self.hi)
            grid = np.geomspace(eps_min, eps_max, self.points).tolist()
            if self.seen.isdisjoint(grid):
                self.seen.update(grid)
                return eps_min, eps_max


def pea_windows(seed: int) -> FreshEpsilon:
    """Windows for sweep-pea: about 2.5 decades, so the canonical fit window
    [1e-3, 1e-2] holds a dozen points and the paired column several above the
    fit floor."""
    return FreshEpsilon(random.Random(f"pea-{seed}"), (1e-4, 2e-4), (3e-2, 5e-2),
                        PEA_POINTS)


def small_sweep_calls(seed: int):
    """Endless stream of CLI sweep invocations, as dicts describing each call.

    Calls come in blocks of eight: four ``bv`` sweeps whose hidden strings
    carry one, two, three and four CNOTs, and four ``toffoli`` sweeps, in a
    seeded order.  Stratifying by CNOT count keeps the work per block equal
    across seeds, so latency percentiles compare across seeds.
    """
    rng = random.Random(f"small-{seed}")
    windows = FreshEpsilon(rng, (5e-4, 1e-3), (1e-2, 2e-2), CLI_POINTS)
    by_weight = {k: [format(v, "04b") for v in range(16) if bin(v).count("1") == k]
                 for k in range(1, 5)}
    while True:
        block = [("bv", rng.choice(by_weight[k])) for k in range(1, 5)]
        block += [("toffoli", None)] * 4
        rng.shuffle(block)
        for name, bits in block:
            eps_min, eps_max = windows.next()
            yield {"circuit": name, "bv_bits": bits, "eps_min": eps_min,
                   "eps_max": eps_max, "points": CLI_POINTS}


#: CNOT share of the ops of a sparse and of a dense generated circuit.
PLAN_CNOT_DENSITIES = (0.25, 0.4)

# Single-qubit gate menu for generated circuits: Cliffords (including
# quarter-turn rotations) and the non-Clifford T/Tdg that make traces opaque.
_CLIFFORD_1Q = (("H", None), ("X", None), ("Z", None), ("GAMMA", None),
                ("RZ", math.pi / 2), ("RZ", -math.pi / 2), ("RX", math.pi / 2))
_T_1Q = (("T", None), ("TDG", None))


#: Share of single-qubit ops that are T or Tdg.
PLAN_T_SHARE = 0.15


def random_circuit(rng: random.Random, width: int,
                   cnot_density: float) -> ecircuit.Circuit:
    """Clifford+T circuit of ``5 * width`` ops with a seeded measured-wire subset.

    The numbers of CNOTs, T gates and conjugate-pair shapes (a CNOT, one
    target-only gate, the same CNOT again) are fixed by the width and density;
    the seed places them.  Fixing the counts keeps planning cost comparable
    across seeds while the traces it does still differ.
    """
    n_ops = 5 * width
    n_cnot = round(cnot_density * n_ops)
    n_pairs = n_cnot // 4
    n_1q = n_ops - n_cnot
    t_mask = [True] * round(PLAN_T_SHARE * n_1q)
    t_mask += [False] * (n_1q - len(t_mask))
    rng.shuffle(t_mask)
    slots = ["pair"] * n_pairs + ["cnot"] * (n_cnot - 2 * n_pairs)
    slots += ["1q"] * (n_1q - n_pairs)
    rng.shuffle(slots)

    def one_qubit(q: int) -> ecircuit.GateOp:
        kind, angle = rng.choice(_T_1Q if t_mask.pop() else _CLIFFORD_1Q)
        return ecircuit.GateOp(kind, (q,), angle=angle)

    ops: list[ecircuit.GateOp] = []
    for slot in slots:
        if slot == "1q":
            ops.append(one_qubit(rng.randrange(width)))
            continue
        c, t = rng.sample(range(width), 2)
        ops.append(ecircuit.GateOp("CNOT", (c, t)))
        if slot == "pair":
            ops += [one_qubit(t), ecircuit.GateOp("CNOT", (c, t))]
    measured = tuple(sorted(rng.sample(range(width), rng.randint(1, width))))
    input_label = "".join(rng.choice("01") for _ in range(width))
    return ecircuit.Circuit(width=width, ops=tuple(ops), input_state=input_label,
                            output_register=measured)


def plan_circuits(seed: int):
    """Endless stream of circuit files for plan-generated, in blocks of eight:
    one sparse and one dense circuit each of 3, 4, 5 and 6 qubits, in a
    seeded order.

    Planning cost grows steeply with width and CNOT count, so each block has
    the same mix of both; what the seed varies is where gates, T gates and
    pairs fall and which wires are measured.
    """
    rng = random.Random(f"plan-{seed}")
    while True:
        block = [(w, d) for w in (3, 4, 5, 6) for d in PLAN_CNOT_DENSITIES]
        rng.shuffle(block)
        for width, density in block:
            yield ecircuit.format_circuit(random_circuit(rng, width, density))
