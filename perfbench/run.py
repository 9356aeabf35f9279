"""errorient benchmark: four workloads from one command, every output checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the program is imported from ./src and
nowhere else.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, measured untraced; with
``--trace 1`` they are the per-layer ones of a traced run.  The line before
it is a JSON record of the environment, the traffic served and the details
behind the metrics.  That record, and the spans of the first traced block,
are also written under ``.bench_out/``.

Workloads and metrics are described in perfbench/README.md; which layer
metric should move which end-to-end metric is in perfbench/layer_map.json.
"""

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

# Set-up time counts from here: the program import, input generation and the
# first call, not the benchmark's own standard-library imports.
_T0 = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = ROOT / ".bench_out"

WORKLOADS = ("sweep-pea", "sweep-small", "plan-generated")

END_TO_END = {
    "setup_s": "s",
    "results_per_s": "1/s",
    "call_ms_p50": "ms",
    "call_ms_tail": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "qmat.embed.calls": "count",
    "qmat.embed.s": "s",
    "qmat.embed.bytes": "bytes_computed",
    "qmat.embed.share": "ratio",
    "circuit.simulate.calls": "count",
    "circuit.simulate.self_s": "s",
    "circuit.op_unitary.calls": "count",
    "circuit.op_unitary.self_s": "s",
    "circuit.circuit_unitary.calls": "count",
    "circuit.circuit_unitary.self_s": "s",
    "gates.cnot_variant.calls": "count",
    "gates.cnot_variant.self_s": "s",
    "gates.core_cache.hit_ratio": "ratio",
    "gates.core_cache.misses": "count",
    "orient.plan_circuit.s": "s",
    "orient.trace_orientation.calls": "count",
    "orient.trace_orientation.self_s": "s",
    "orient.find_conjugate_pairs.s": "s",
    "orient.trace.opaque_ratio": "ratio",
    "orient.trace.accept_ratio": "ratio",
    "orient.rationale.measurement-cancel": "count",
    "orient.rationale.pair-cancel": "count",
    "orient.rationale.default": "count",
    "sweep.fit_slope.s": "s",
    "sweep.emit_csv.s": "s",
    "circuit.with_variants.s": "s",
    "circuit.parse_circuit.s": "s",
    "sweep.pool.speedup": "ratio",
    "sweep.pool.efficiency": "ratio",
    "trace.overhead": "ratio",
}

#: Set-up is measured this many times, each in a fresh process, and the
#: median reported.
SETUP_PROBES = 3

#: The latency tail is the highest percentile with this many samples above it.
TAIL_BEYOND = 10

#: A run whose every quarter holds this many calls reports the median of the
#: four quarters' tails, so that one burst of machine stalls moves one
#: quarter and not the result.  Each quarter's tail is then at p95 or above.
TAIL_QUARTER_CALLS = 200

# Fitted-slope bands from the paper: naive gate error is second order, the
# corrected gates fourth order, and the paired or oriented circuit columns
# sixth order.  Series not listed here carry no band.
SLOPE_BANDS = {"naive-gate": (2.0, 0.1), "corrected-gate": (4.0, 0.1),
               "headline": (6.0, 0.5)}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def load_program():
    """Import errorient from ./src, and only from there."""
    if "errorient" in sys.modules:
        return
    src = ROOT / "src"
    if not (src / "errorient" / "__init__.py").is_file():
        raise SystemExit(f"error: {src / 'errorient'} not found; run this from the "
                         "root of an errorient checkout")
    sys.path.insert(0, str(src))
    import errorient

    if Path(errorient.__file__).resolve().parent != (src / "errorient").resolve():
        raise SystemExit(f"error: errorient was imported from {errorient.__file__}")


# ---------------------------------------------------------------------------
# Workloads.  Each produces inputs, makes one timed call per input, counts its
# results, checks its output against the references and reports its traffic.
# Program functions are looked up on their modules at call time, so the
# tracer's rebinding sees the benchmark's own calls too.
# ---------------------------------------------------------------------------

def expected_slope(circuit_name: str, series: str):
    kind, _, variant = series.partition(":")
    if kind == "gate_infidelity":
        return SLOPE_BANDS["naive-gate" if variant == "naive" else "corrected-gate"]
    if variant == "sk1_pair" or (circuit_name == "bv" and variant == "sk1_xi"):
        return SLOPE_BANDS["headline"]
    return None


def check_slope(circuit_name: str, series: str, slope: float) -> list[str]:
    band = expected_slope(circuit_name, series)
    if band is None:
        return []
    target, tol = band
    if not abs(slope - target) <= tol:
        return [f"{circuit_name} {series}: slope {slope:.4f} outside {target}+/-{tol}"]
    return []


def check_columns(circuit, gate_level: bool, strategies, grid, columns) -> list[str]:
    """Compare program columns (CSV names -> values) with the reference."""
    import numpy as np

    import oracle

    problems = []
    eps = np.asarray(columns.pop("epsilon"), dtype=float)
    if eps.shape != grid.shape or np.any(eps != grid):
        problems.append("epsilon column differs from the requested grid")
        return problems
    reference = oracle.sweep_values(circuit, gate_level, strategies, grid)
    if set(columns) != set(reference):
        return [f"columns {sorted(columns)} differ from {sorted(reference)}"]
    for name, values in columns.items():
        amplitude = name.startswith("circuit_infidelity") and not gate_level
        problems += oracle.compare_series(name, values, reference[name], amplitude)
    return problems


def circuit_traffic(circuit) -> dict:
    kinds = Counter(op.kind for op in circuit.ops)
    return {"qubits": circuit.width, "ops": len(circuit.ops), "cnots": kinds["CNOT"],
            "t": kinds["T"] + kinds["TDG"], "measured": len(circuit.output_register)}


class SweepPea:
    """run_sweep on pea, all five strategies, one fresh epsilon grid per call."""

    setup_calls = 1
    block_size = 1

    def __init__(self, seed: int, workers: int, windows=None):
        import inputs
        from errorient import sweep

        self.sweep = sweep
        self.inputs = inputs
        self.workers = workers
        self.windows = windows or inputs.pea_windows(seed)

    def next_input(self):
        eps_min, eps_max = self.windows.next()
        return self.sweep.SweepConfig(circuit="pea", variants=self.inputs.STRATEGIES,
                                      eps_min=eps_min, eps_max=eps_max,
                                      points=self.inputs.PEA_POINTS, workers=self.workers)

    def call(self, cfg):
        return self.sweep.run_sweep(cfg)

    def results(self, cfg, records) -> int:
        return len(records) * len(cfg.variants)

    def check(self, cfg, records) -> list[str]:
        circuit = self.sweep.load_circuit("pea")
        names = self.sweep.series_names(cfg)
        columns = {"epsilon": [r.epsilon for r in records]}
        for series in names:
            kind, _, variant = series.partition(":")
            columns[f"{kind}_{variant}"] = [r.value(series) for r in records]
        problems = check_columns(circuit, False, cfg.variants, cfg.grid(), columns)
        for series in names:
            problems += check_slope("pea", series, self.sweep.fit_slope(records, series))
        return problems

    def corrupt(self, cfg, records):
        records[-1].circuit_infidelity["naive"] *= 1.001
        return records

    def traffic(self, cfg, records) -> dict:
        return dict(circuit_traffic(self.sweep.load_circuit("pea")), circuit="pea",
                    eps_window=[cfg.eps_min, cfg.eps_max, cfg.points],
                    workers=cfg.workers)

    def cleanup(self, cfg):
        pass


_FIT_LINE = re.compile(r"^fit (\S+): slope=(\S+) over")


class SweepSmall:
    """`errorient sweep` through cli.main, 25-point bv and toffoli sweeps."""

    setup_calls = 1
    block_size = 8

    def __init__(self, seed: int):
        import inputs
        from errorient import cli, sweep

        self.cli = cli
        self.sweep = sweep
        self.inputs = inputs
        self.calls = inputs.small_sweep_calls(seed)
        self.count = 0

    def next_input(self):
        spec = next(self.calls)
        self.count += 1
        path = OUT / f"sweep-{os.getpid()}-{self.count}.csv"
        argv = ["sweep", "--circuit", spec["circuit"], "--eps-min", repr(spec["eps_min"]),
                "--eps-max", repr(spec["eps_max"]), "--out", str(path)]
        if spec["bv_bits"]:
            argv += ["--bv-bits", spec["bv_bits"]]
        return dict(spec, argv=argv, path=path)

    def call(self, spec):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(spec["argv"])
        return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}

    def results(self, spec, out) -> int:
        return spec["points"] * len(self.inputs.STRATEGIES)

    def check(self, spec, out) -> list[str]:
        import numpy as np

        if out["code"] != 0:
            return [f"exit code {out['code']}: {out['stderr'].strip()}"]
        with open(spec["path"], newline="") as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], rows[1:]
        columns = {name: [float(row[k]) for row in body] for k, name in enumerate(header)}
        circuit = self.sweep.load_circuit(spec["circuit"], spec["bv_bits"] or "1111")
        grid = np.geomspace(spec["eps_min"], spec["eps_max"], spec["points"])
        problems = check_columns(circuit, spec["circuit"] == "toffoli",
                                 self.inputs.STRATEGIES, grid, columns)
        slopes = dict(m.groups() for m in map(_FIT_LINE.match, out["stdout"].splitlines())
                      if m)
        for kind in ("gate_infidelity", "circuit_infidelity"):
            for variant in self.inputs.STRATEGIES:
                series = f"{kind}:{variant}"
                if series not in slopes:
                    problems.append(f"no fitted slope printed for {series}")
                else:
                    problems += check_slope(spec["circuit"], series, float(slopes[series]))
        return problems

    def corrupt(self, spec, out):
        text = spec["path"].read_text().splitlines()
        cells = text[-1].split(",")
        cells[-1] = repr(float(cells[-1]) * 1.001)
        text[-1] = ",".join(cells)
        spec["path"].write_text("\n".join(text) + "\n")
        return out

    def traffic(self, spec, out) -> dict:
        circuit = self.sweep.load_circuit(spec["circuit"], spec["bv_bits"] or "1111")
        return dict(circuit_traffic(circuit), circuit=spec["circuit"],
                    bv_bits=spec["bv_bits"],
                    eps_window=[spec["eps_min"], spec["eps_max"], spec["points"]])

    def cleanup(self, spec):
        spec["path"].unlink(missing_ok=True)


class PlanGenerated:
    """parse_circuit then plan_circuit on seeded random circuit files."""

    setup_calls = 8
    block_size = 8

    def __init__(self, seed: int):
        import inputs
        from errorient import circuit, gates, orient

        self.circuit = circuit
        self.gates = gates
        self.orient = orient
        self.texts = inputs.plan_circuits(seed)

    def next_input(self):
        return next(self.texts)

    def call(self, text):
        parsed = self.circuit.parse_circuit(text)
        return parsed, self.orient.plan_circuit(parsed)

    def results(self, text, out) -> int:
        return 1

    def check(self, text, out) -> list[str]:
        import oracle

        circuit, plan = out
        problems = []
        if self.circuit.format_circuit(circuit) != text:
            problems.append("parsed circuit does not format back to its file")
        assigned = [a.op_index for a in plan.assignments]
        if assigned != list(circuit.cnot_indices):
            return problems + [f"plan assigns ops {assigned}, CNOTs are "
                               f"{list(circuit.cnot_indices)}"]
        reference = oracle.reference_plan(circuit)
        candidates = {v: (which, axis) for v, which, axis in oracle.CANDIDATES}
        measured = circuit.output_register
        ideal = self.gates.ErrorModel(0.0)
        unitaries = {}

        def op_unitary(i):
            if i not in unitaries:
                unitaries[i] = self.circuit.op_unitary(circuit.ops[i], circuit.width, ideal)
            return unitaries[i]

        for a in plan.assignments:
            op = circuit.ops[a.op_index]
            if (a.control, a.target) != op.qubits:
                problems.append(f"op {a.op_index}: wires {(a.control, a.target)} != {op.qubits}")
            got = (a.variant.value, a.rationale)
            if got != reference[a.op_index]:
                problems.append(f"op {a.op_index}: {got} != reference {reference[a.op_index]}")
            if a.rationale != "measurement-cancel" or a.variant.value not in candidates:
                continue
            which, axis = candidates[a.variant.value]
            qubit = op.qubits[which]
            dense = oracle.dense_terminal(circuit, a.op_index, qubit, axis, op_unitary)
            local = oracle.local_trace(circuit, a.op_index, qubit, axis)
            if dense is None or dense != local:
                problems.append(f"op {a.op_index}: dense terminal {dense} != traced {local}")
            elif any(dense[0][q] not in "IZ" for q in measured):
                problems.append(f"op {a.op_index}: terminal {dense[0]} is not I/Z on "
                                f"measured wires {measured}")
        return problems

    def corrupt(self, text, out):
        circuit, plan = out
        first, *rest = plan.assignments
        flipped = "default" if first.rationale != "default" else "pair-cancel"
        return circuit, dataclasses.replace(
            plan, assignments=(dataclasses.replace(first, rationale=flipped), *rest))

    def traffic(self, text, out) -> dict:
        return circuit_traffic(out[0])

    def cleanup(self, text):
        pass


def make_workload(name: str, seed: int):
    if name == "sweep-pea":
        return SweepPea(seed, workers=1)
    if name == "sweep-small":
        return SweepSmall(seed)
    return PlanGenerated(seed)


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class Ledger:
    """Every call made in this run, with its check outcome and traffic."""

    attempted: int = 0
    failed: int = 0
    problems: list = dataclasses.field(default_factory=list)
    traffic: list = dataclasses.field(default_factory=list)
    corrupt_next: bool = False


def run_calls(w, count: int, tracer=None):
    """Make ``count`` timed calls: a list of (input, output, seconds, error)."""
    calls = []
    for _ in range(count):
        x = w.next_input()
        if tracer is not None:
            tracer.run_id += 1
        start = time.perf_counter()
        try:
            out, error = w.call(x), None
        except Exception as exc:  # a raising call is a failed operation
            out, error = None, f"{type(exc).__name__}: {exc}"
        calls.append((x, out, time.perf_counter() - start, error))
    return calls


def check_calls(w, calls, ledger: Ledger):
    for x, out, _, error in calls:
        ledger.attempted += 1
        problems = [error] if error else []
        if not error:
            if ledger.corrupt_next:
                ledger.corrupt_next = False
                out = w.corrupt(x, out)
            try:
                problems = w.check(x, out)
            except Exception as exc:  # a check that cannot run is a failed check
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            ledger.failed += 1
            if len(ledger.problems) < 20:
                ledger.problems.append(problems[:3])
        ledger.traffic.append(w.traffic(x, out) if out is not None else {})
        w.cleanup(x)


def tail(samples):
    """Highest-percentile sample with TAIL_BEYOND samples above it, as
    (value, percentile, samples it was taken from, quarters)."""
    quarters = 4 if len(samples) >= 4 * TAIL_QUARTER_CALLS else 1
    size = len(samples) // quarters
    # Too few calls to leave TAIL_BEYOND above any sample: report the maximum.
    beyond = TAIL_BEYOND if size > TAIL_BEYOND else 0
    values = [sorted(samples[k * size:(k + 1) * size])[size - 1 - beyond]
              for k in range(quarters)]
    return statistics.median(values), 100.0 * (size - beyond) / size, size, quarters


def peak_rss_mb() -> float:
    """Peak resident memory of the process that runs the workload (pool
    workers are separate processes and not included)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def setup_probe(workload: str, seed: int):
    """One set-up sample: import, inputs, and the first call, in this process.

    The calling process makes and checks the same first call itself."""
    load_program()
    w = make_workload(workload, seed)
    calls = run_calls(w, w.setup_calls)
    elapsed = time.perf_counter() - _T0
    for x, *_ in calls:
        w.cleanup(x)
    print(json.dumps({"setup_s": elapsed}))


def measure_setup(workload: str, seed: int, probes: int):
    samples = []
    for _ in range(probes):
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--setup-probe",
                               "--workload", workload, "--seed", str(seed)],
                              cwd=ROOT, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(samples), samples


def measure(workload: str, seed: int, seconds: float, probes: int, min_calls: int,
            ledger: Ledger):
    """Untraced run: the end-to-end metrics."""
    setup_s, setup_samples = measure_setup(workload, seed, probes)
    w = make_workload(workload, seed)
    check_calls(w, run_calls(w, w.setup_calls), ledger)
    blocks, timed = [], 0.0
    while timed < seconds or sum(map(len, blocks)) < min_calls:
        calls = run_calls(w, w.block_size)
        check_calls(w, calls, ledger)
        blocks.append(calls)
        timed += sum(c[2] for c in calls)
    latencies = [c[2] for block in blocks for c in block]
    results = sum(w.results(x, out) for block in blocks for x, out, _, err in block
                  if not err)
    tail_s, tail_pct, tail_n, quarters = tail(latencies)
    metrics = {
        "setup_s": setup_s,
        # Total over the run, not a median of blocks: this machine switches
        # between speed modes, and a median flips between them.
        "results_per_s": results / timed,
        "call_ms_p50": 1e3 * statistics.median(latencies),
        "call_ms_tail": 1e3 * tail_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    details = {"setup_samples_s": setup_samples, "calls": len(latencies),
               "blocks": len(blocks), "tail_percentile": tail_pct, "tail_samples": tail_n,
               "tail_quarters": quarters, "timed_s": timed,
               "latencies_ms": [round(1e3 * t, 4) for t in latencies]}
    return metrics, details


def layer_metrics(tracer, cache_delta, traced_s, untraced_s):
    summary = tracer.summary()

    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    c = tracer.counters
    hits, misses = cache_delta
    traces = get("orient.trace_orientation", "calls")
    accepted = c["orient.rationale.measurement-cancel"]
    m = {
        "qmat.embed.calls": get("qmat.embed", "calls"),
        "qmat.embed.s": get("qmat.embed", "s"),
        "qmat.embed.bytes": c["qmat.embed.bytes"],
        "qmat.embed.share": get("qmat.embed", "s") / traced_s,
        "gates.core_cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "gates.core_cache.misses": misses,
        "orient.plan_circuit.s": get("orient.plan_circuit", "s"),
        "orient.find_conjugate_pairs.s": get("orient.find_conjugate_pairs", "s"),
        "orient.trace.opaque_ratio": c["orient.trace.opaque"] / traces if traces else 0.0,
        "orient.trace.accept_ratio": accepted / traces if traces else 0.0,
        "sweep.fit_slope.s": get("sweep.fit_slope", "s"),
        "sweep.emit_csv.s": get("sweep.emit_csv", "s"),
        "circuit.with_variants.s": get("circuit.with_variants", "s"),
        "circuit.parse_circuit.s": get("circuit.parse_circuit", "s"),
        "trace.overhead": traced_s / untraced_s,
    }
    for name in ("circuit.simulate", "circuit.op_unitary", "circuit.circuit_unitary",
                 "gates.cnot_variant", "orient.trace_orientation"):
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.self_s"] = get(name, "self_s")
    for rationale in ("measurement-cancel", "pair-cancel", "default"):
        m[f"orient.rationale.{rationale}"] = c[f"orient.rationale.{rationale}"]
    return m


#: Pool calls for the pool speed-up: the first POOL_WARMUP are not timed,
#: because pools started right after single-process work run slow at first.
POOL_WARMUP = 2
POOL_CALLS = 3


def measure_traced(workload: str, seed: int, seconds: float, ledger: Ledger, spans_path):
    """Traced run with workers=1: per-layer metrics, each the median over
    rounds of one untraced block followed by one traced block of equal work.
    sweep-pea then times untraced calls with workers=nproc for the pool
    speed-up."""
    import spans
    from errorient import gates

    w = make_workload(workload, seed)
    check_calls(w, run_calls(w, w.setup_calls), ledger)
    rounds, plain_times, timed = [], [], 0.0
    while timed < seconds or len(rounds) < 2:
        plain = run_calls(w, w.block_size)
        check_calls(w, plain, ledger)
        untraced_s = sum(c[2] for c in plain)
        plain_times.append(untraced_s)
        before = gates._cnot_core.cache_info()
        with spans.Tracer() as tracer:
            traced = run_calls(w, w.block_size, tracer)
        after = gates._cnot_core.cache_info()
        traced_s = sum(c[2] for c in traced)
        check_calls(w, traced, ledger)
        cache_delta = (after.hits - before.hits, after.misses - before.misses)
        rounds.append(layer_metrics(tracer, cache_delta, traced_s, untraced_s))
        if len(rounds) == 1:
            tracer.write(spans_path)
        timed += untraced_s + traced_s
    metrics = {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}
    details = {"rounds": len(rounds), "timed_s": timed}
    speedup = 0.0
    if isinstance(w, SweepPea):
        pool = SweepPea(seed, nproc(), windows=w.windows)
        pooled = run_calls(pool, POOL_WARMUP + POOL_CALLS)
        check_calls(pool, pooled, ledger)
        pool_s = statistics.median(c[2] for c in pooled[POOL_WARMUP:])
        speedup = statistics.median(plain_times) / pool_s
        details["pool_call_s"] = [c[2] for c in pooled]
    metrics["sweep.pool.speedup"] = speedup
    metrics["sweep.pool.efficiency"] = speedup / nproc()
    return metrics, details


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

def environment() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "errorient").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {"nproc": nproc(), "cpu_count": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform(), "git_commit": commit,
            "source_sha256": digest.hexdigest()}


def traffic_summary(entries) -> dict:
    served = [e for e in entries if e]
    summary: dict = {"calls": len(entries), "served": len(served)}
    for key in ("circuit", "qubits", "cnots", "measured", "bv_bits", "workers"):
        values = Counter(str(e[key]) for e in served if key in e)
        if values:
            summary[f"by_{key}"] = dict(sorted(values.items()))
    for key in ("ops", "cnots", "t"):
        summary[f"total_{key}"] = sum(e.get(key, 0) for e in served)
    windows = [e["eps_window"] for e in served if "eps_window" in e]
    if windows:
        summary["eps_min_range"] = [min(w[0] for w in windows), max(w[0] for w in windows)]
        summary["eps_max_range"] = [min(w[1] for w in windows), max(w[1] for w in windows)]
        summary["points"] = sorted({w[2] for w in windows})
    return summary


def run(workload: str, seed: int, seconds: float, trace: bool, probes: int = SETUP_PROBES,
        min_calls: int = TAIL_BEYOND + 1, corrupt: bool = False) -> dict:
    """One benchmark run; returns the result record (metrics and details)."""
    load_program()
    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    ledger = Ledger(corrupt_next=corrupt)
    if trace:
        spans_path = OUT / f"spans-{stem}.jsonl"
        values, details = measure_traced(workload, seed, seconds, ledger, spans_path)
        units = PER_LAYER
        details["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        values, details = measure(workload, seed, seconds, probes, min_calls, ledger)
        units = END_TO_END
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment(),
        "attempted": ledger.attempted, "failed": ledger.failed,
        "failed_frac": ledger.failed / ledger.attempted,
        "problems": ledger.problems,
        "details": details,
        "traffic": traffic_summary(ledger.traffic),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    full = dict(record, traffic_per_call=ledger.traffic)
    (OUT / f"result-{stem}.json").write_text(json.dumps(full, indent=1) + "\n")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    details = {k: v for k, v in record["details"].items() if k != "latencies_ms"}
    print(json.dumps(dict({k: v for k, v in record.items() if k != "metrics"},
                          details=details)))
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
