"""invsub benchmark: time-to-verdict of the CLI and the library on four
seeded workloads, peak RSS per invocation, and per-module layer
timings from a separate traced run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload certify --seed 1 --seconds 26 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 26

--trace 0 measures the end-to-end metrics with tracing off: set-up
(fresh interpreters importing invsub.cli), then a CLI pass (each
invocation a subprocess, one at a time) interleaved invocation by
invocation with a library pass (a worker process that imported
everything before any clock starts, fresh for each pass), repeated
while another pair fits in --seconds. Medians over the passes are
reported. Times are reported at a reference speed of the machine:
each is scaled by timings of a fixed kernel taken next to it, on the
same CPU (reference.py).

--trace 1 measures the per-layer metrics: the import breakdown of a
fresh interpreter, then an untraced and a traced library pass,
interleaved the same way, repeated while another pair fits. The traced
pass wraps the package's public functions from outside (tracer.py);
its cost is reported as trace.overhead_s.

Every invocation's output is checked against known answers and, for
inputs that do not depend on the seed, its certificate bytes against
digests.json. An invocation that misses either, exits with the wrong
status, or runs past the per-invocation limit counts as failed.
`correct` is false when the passes of one run disagree with each
other: CLI against library, repeat against repeat, traced against
untraced. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.

The package is not installed: invocations run `python -m invsub.cli`
with the checkout's src on PYTHONPATH. Run outside a checkout (no
src/invsub), the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import reference
from reference import REFERENCE_S
from workloads import REFERENCE_KERNEL, WORKLOADS, build_plan, unmet

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

INVOCATION_LIMIT_S = 60.0   # a single invocation past this has failed
RUN_CAP_S = 150.0           # no invocation starts after this much run time
SETUP_SAMPLES = 3
# A reference kernel (reference.py) is timed once for every this many
# seconds of measured work, and a time is scaled by the mean of its
# timings within this many seconds of either end of it.
REFERENCE_EVERY_S = 0.5
REFERENCE_WINDOW_S = 1.0

IMPORT_BREAKDOWN = """\
import json, time
t0 = time.perf_counter()
import numpy
t1 = time.perf_counter()
import sympy
t2 = time.perf_counter()
import invsub.cli
t3 = time.perf_counter()
print(json.dumps({"numpy": t1 - t0, "sympy": t2 - t1, "invsub": t3 - t2}))
"""

E2E_UNITS = {"setup_s": "s", "cli_wall_s": "s", "lib_wall_s": "s",
             "peak_rss_mib": "MiB", "ok_share": "ratio"}

# Per-layer metrics from the span summary: name -> source. busy is the
# inclusive seconds and self the self seconds of the span named by the
# metric's prefix, calls its count of spans; count is a counter of the
# metric's own name; sites counts check_vs's per-site restrictions.
LAYER_METRICS = {
    "specio.resolve_spec.s": "busy",
    "laurent.determinantal_profile.s": "busy",
    "laurent.minors.enumerated": "count",
    "laurent.minors.distinct": "count",
    "laurent.matrix_inverse.s": "busy",
    "laurent.LaurentPoly.constructed": "count",
    "groebner.buchberger.s": "busy",
    "groebner.buchberger.calls": "calls",
    "groebner.buchberger.basis_size": "count",
    "groebner.normal_form.calls": "count",
    "pauli.check_invertible.s": "busy",
    "pauli.build_projector.self_s": "self",
    "pauli.commutant_generators.s": "busy",
    "qca.lift_to_qca.s": "busy",
    "qca.qca_inverse.s": "busy",
    "fplinalg.rref.s": "busy",
    "fplinalg.rref.calls": "calls",
    "fplinalg.rref.cells": "count",
    "fplinalg.rref.max_cols": "count",
    "fplinalg.kernel.self_s": "self",
    "fplinalg.row_space_intersection.self_s": "self",
    "fplinalg.coordinate_restriction.self_s": "self",
    "fplinalg.solve.calls": "calls",
    "fplinalg.solve.infeasible": "count",
    "finite_oracle.instantiate_spec.s": "busy",
    "finite_oracle.check_invertible_finite.s": "busy",
    "finite_oracle.check_vs.s": "busy",
    "finite_oracle.check_vs.sites": "sites",
    "finite_oracle.center_at_boundary_distance.s": "busy",
    "finite_oracle.instantiate_qca.s": "busy",
    "finite_oracle.instantiate_qca.n": "count",
    "finite_oracle.boundary_algebra_finite.s": "busy",
    "finite_oracle.verify_blend.s": "busy",
    "anyon_lab.build_hamiltonian.s": "busy",
    "anyon_lab.build_hamiltonian.terms": "count",
    "anyon_lab.topological_spin.s": "busy",
    "anyon_lab.leg_string.calls": "calls",
    "anyon_lab.leg_string.self_s": "self",
    "anyon_lab.gauss_sum_phase.s": "busy",
    "weyl.dist_bounded.s": "busy",
    "weyl.unitary_distance.calls": "calls",
    "weyl.unitary_distance.s": "busy",
    "weyl.PhasedPauli.mul.calls": "count",
}
# Filled in by the harness itself rather than from the span summary.
DERIVED_LAYER_UNITS = {
    "laurent.minors.useful_ratio": "ratio",
    "setup.import_numpy_s": "s",
    "setup.import_sympy_s": "s",
    "setup.import_invsub_s": "s",
    "trace.lib_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
    "machine.reference_s": "s",
}


def layer_value(summary: dict, name: str, source: str):
    if source == "sites":
        return summary["check_vs_sites"]
    if source == "count":
        return summary["counts"].get(name, 0)
    suffix = {"busy": ".s", "self": ".self_s", "calls": ".calls"}[source]
    table = {"busy": "busy_s", "self": "self_s", "calls": "calls"}[source]
    return summary[table].get(name.removesuffix(suffix), 0)


def blas_threads() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # String hashing fixed so that set and dict orders, and with them
    # every counted quantity, repeat exactly from run to run.
    env["PYTHONHASHSEED"] = "0"
    threads = str(blas_threads())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def reap(proc: subprocess.Popen, limit: float):
    """Wait up to `limit` seconds for proc, kill it if it is still
    running, and reap it with os.wait4, which gives this child's own
    resource usage: (timed out, exit status, usage)."""
    timed_out = True
    try:
        fd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([fd], [], [], max(limit, 0.0))
        finally:
            os.close(fd)
        timed_out = not ready
    finally:
        # Reaped here whatever happened, killed first unless it ended by
        # itself.
        if timed_out:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return timed_out, proc.returncode, usage


class Child:
    """One subprocess run to completion, killed if it outlives its time
    limit; its wall time, exit status and own peak RSS."""

    def __init__(self, argv, env, stdout_path: Path, limit: float):
        self.argv, self.env, self.limit = argv, env, limit
        self.stdout_path = stdout_path

    def run(self) -> dict:
        err_path = self.stdout_path.with_suffix(".err")
        with open(self.stdout_path, "wb") as out, open(err_path, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(self.argv, stdout=out, stderr=err,
                                    env=self.env, cwd=ROOT)
            timed_out, status, usage = reap(proc, self.limit)
            wall = perf_counter() - start
        return {"wall_s": wall, "exit": status, "timed_out": timed_out,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                # ru_maxrss is in KiB on Linux.
                "rss_mib": usage.ru_maxrss / 1024.0}


class Worker:
    """A library worker (worker.py) serving one library pass: started,
    and past its imports, before any clock starts, then asked for one
    invocation at a time. Killed and reaped on leaving the with block."""

    def __init__(self, run: "Run", name: str, traced: bool):
        self.trace_path = run.workdir / f"{name}.trace.json" if traced else None
        argv = [run.python, str(BENCH / "worker.py"), str(run.plan_file)]
        if traced:
            argv += ["--trace", str(self.trace_path)]
        self.err = open(run.workdir / f"{name}.err", "wb")
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=self.err,
                                     env=run.env, cwd=ROOT)
        self.alive = self.readline(INVOCATION_LIMIT_S) == b"ready\n"
        self.usage = None

    def __enter__(self) -> "Worker":
        return self

    def __exit__(self, *exc) -> None:
        if self.usage is None:
            self.alive = False
            self.usage = reap(self.proc, 0.0)[2]
        self.err.close()

    def readline(self, limit: float) -> bytes:
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    max(limit, 0.0))
        return self.proc.stdout.readline() if ready else b""

    def call(self, index: int, limit: float) -> dict:
        """Result fields of invocation `index`, with its seconds."""
        if self.alive:
            self.proc.stdin.write(f"{index}\n".encode())
            self.proc.stdin.flush()
            line = self.readline(limit)
            if line:
                return json.loads(line)
            self.alive = False
        return {"error": "library worker died or ran past the time limit"}

    def close(self, limit: float) -> dict | None:
        """Let the worker finish; its span summary when traced."""
        self.proc.stdin.close()
        self.usage = reap(self.proc, limit)[2]
        if self.trace_path is None or not self.trace_path.exists():
            return None
        return json.loads(self.trace_path.read_text())


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: int):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.trace = trace
        self.started = perf_counter()
        self.workdir = BENCH / ".work" / f"{workload}-s{seed}-t{trace}"
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        self.env = child_env()
        self.python = sys.executable
        self.failures: dict[str, list[str]] = {}
        self.kernels = REFERENCE_KERNEL[workload]
        # kernel -> (moment, seconds) of each of its timings
        self.reference_samples: dict[str, list[tuple[float, float]]] = {
            kernel: [] for kernel in reference.KERNELS}
        self.disagreements: list[str] = []
        self.digests = json.loads((BENCH / "digests.json").read_text())

        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        self.plan = build_plan(workload, seed, self.workdir)
        self.plan_file = self.workdir / "plan.json"
        self.plan_file.write_text(json.dumps(
            [{"label": i.label, "cmd": i.cmd, "args": i.args}
             for i in self.plan.invocations]))

    # -- helpers ------------------------------------------------------

    def remaining(self) -> float:
        return RUN_CAP_S - (perf_counter() - self.started)

    def fail(self, label: str, why: str) -> None:
        reasons = self.failures.setdefault(label, [])
        if why not in reasons:
            reasons.append(why)

    def disagree(self, what: str) -> None:
        if what not in self.disagreements:
            self.disagreements.append(what)

    def time_reference(self, after_s: float, kernels: tuple[str, ...]) -> None:
        """Time the reference kernels (reference.py) in turn, while no
        child runs, one round for every REFERENCE_EVERY_S of the
        `after_s` seconds of work just measured, and at least one."""
        rounds = max(1, round(after_s / REFERENCE_EVERY_S / len(kernels)))
        for _ in range(rounds):
            for kernel in kernels:
                start = perf_counter()
                took = reference.sample(kernel)
                self.reference_samples[kernel].append((start + took / 2,
                                                       took))

    def at_reference_speed(self, took: float, span: tuple[float, float],
                           kernels: tuple[str, ...]) -> float:
        """`took` seconds of work done during `span`, scaled to the
        machine speed at which each kernel takes its REFERENCE_S: by the
        mean of each kernel's timings near that interval, and by the
        geometric mean of the kernels' factors."""
        start, end = span
        for kernel in kernels:
            near = [s for t, s in self.reference_samples[kernel]
                    if start - REFERENCE_WINDOW_S <= t
                    <= end + REFERENCE_WINDOW_S]
            took *= (REFERENCE_S[kernel]
                     / statistics.mean(near)) ** (1 / len(kernels))
        return took

    def child(self, argv, name: str) -> dict:
        path = self.workdir / f"{name}.out"
        return Child([self.python] + argv, self.env, path,
                     min(INVOCATION_LIMIT_S, self.remaining())).run() \
            | {"out": path}

    # -- set-up -------------------------------------------------------

    def setup_samples(self) -> tuple[list[float], list[float]]:
        """Fresh interpreters importing invsub.cli, the start-up every
        CLI call pays: (wall times, the same at the reference speed).
        The first, which may compile bytecode, is discarded."""
        walls, spans = [], []
        self.time_reference(2.0, ("python",))
        for i in range(SETUP_SAMPLES + 1):
            start = perf_counter()
            rec = self.child(["-c", "import invsub.cli"], f"setup{i}")
            spans.append((start, perf_counter()))
            self.time_reference(2 * rec["wall_s"], ("python",))
            if rec["exit"] != 0:
                raise RuntimeError("importing invsub.cli failed: "
                                   + rec["out"].with_suffix(".err").read_text())
            walls.append(rec["wall_s"])
        scaled = [self.at_reference_speed(w, span, ("python",))
                  for w, span in zip(walls, spans)]
        return walls[1:], scaled[1:]

    def import_breakdown(self) -> list[dict]:
        out = []
        for i in range(SETUP_SAMPLES + 1):
            rec = self.child(["-c", IMPORT_BREAKDOWN], f"imports{i}")
            if rec["exit"] != 0:
                raise RuntimeError("import breakdown failed: "
                                   + rec["out"].with_suffix(".err").read_text())
            out.append(json.loads(rec["out"].read_text()))
        return out[1:]

    # -- passes -------------------------------------------------------

    def interleaved(self, k: int, kinds) -> dict:
        """One pass of each kind, interleaved invocation by invocation:
        invocation i runs as each kind in turn before invocation i + 1.
        The machine's speed drifts by tens of percent over tens of
        seconds, so passes taken one after another would each see a
        different speed; interleaved, they share it. The reference kernel
        is timed between any two of them, and each invocation's time is
        scaled by its timings near it."""
        runs = {kind: [] for kind in kinds}
        spans = {kind: [] for kind in kinds}
        workers = {}
        try:
            for kind in kinds:
                if kind != "cli":
                    workers[kind] = Worker(self, f"{kind}{k}",
                                           traced=kind == "traced")
            self.time_reference(2.0, self.kernels)
            for i, item in enumerate(self.plan.invocations):
                for kind in kinds:
                    start = perf_counter()
                    limit = min(INVOCATION_LIMIT_S, self.remaining())
                    if limit <= 0:
                        out = None
                    elif kind == "cli":
                        out = self.child(["-m", "invsub.cli"] + item.argv(),
                                         f"cli{k}-{i}")
                    else:
                        out = workers[kind].call(i, limit)
                    end = perf_counter()
                    self.time_reference(end - start, self.kernels)
                    runs[kind].append(out)
                    spans[kind].append((start, end))
            traces = {kind: w.close(self.remaining())
                      for kind, w in workers.items()}
        finally:
            for w in workers.values():
                w.__exit__()
        passes = {}
        for kind in kinds:
            if kind == "cli":
                passes[kind] = self.check_cli(runs[kind])
                took = [r and r["wall_s"] for r in runs[kind]]
            else:
                passes[kind] = self.check_lib(runs[kind], kind)
                passes[kind]["trace"] = traces[kind]
                took = [r.get("seconds") for r in passes[kind]["results"]]
            passes[kind]["spans"] = spans[kind]
            passes[kind]["scaled_s"] = sum(
                self.at_reference_speed(t, span, self.kernels)
                for t, span in zip(took, spans[kind]) if t is not None)
        return passes

    def check_cli(self, records: list) -> dict:
        outputs = []
        for item, rec in zip(self.plan.invocations, records):
            if rec is None:
                self.fail(item.label, "not started: run time cap reached")
                outputs.append(None)
                continue
            raw = rec.pop("out").read_bytes()
            rec["digest"] = hashlib.sha256(raw).hexdigest()
            try:
                fields = json.loads(raw)
            except ValueError:
                fields = {}
            fields["exit"] = rec["exit"]
            rec["fields"] = fields
            outputs.append(rec)
            if rec["timed_out"]:
                self.fail(item.label, "CLI past the time limit")
            for miss in unmet(item.expect, fields):
                self.fail(item.label, f"CLI {miss}")
            if item.digest:
                want = self.digests.get(item.label)
                if want is None:
                    self.fail(item.label, "no stored certificate digest")
                elif want != rec["digest"]:
                    self.fail(item.label, "certificate digest mismatch")
        done = [r for r in outputs if r]
        return {"wall_s": sum(r["wall_s"] for r in done),
                "complete": len(done) == len(outputs),
                "invocations": outputs,
                "peak_rss_mib": max((r["rss_mib"] for r in done),
                                    default=0.0)}

    def check_lib(self, results: list, tag: str) -> dict:
        results = [r if r is not None
                   else {"error": "not started: run time cap reached"}
                   for r in results]
        for item, res in zip(self.plan.invocations, results):
            if "error" in res:
                self.fail(item.label, f"{tag} {res['error']}")
            elif res["seconds"] > INVOCATION_LIMIT_S:
                self.fail(item.label, f"{tag} past the time limit")
            for miss in unmet(item.expect, res):
                self.fail(item.label, f"{tag} {miss}")
        return {"wall_s": sum(r.get("seconds", 0.0) for r in results),
                "complete": all("seconds" in r for r in results),
                "results": results}

    # -- consistency --------------------------------------------------

    def compare(self, a: list, b: list, what: str) -> None:
        """Fields both sides report must agree, invocation by invocation."""
        for item, x, y in zip(self.plan.invocations, a, b):
            if x is None or y is None or "error" in x or "error" in y:
                continue
            for key in sorted(set(x) & set(y) - {"seconds", "error"}):
                if x[key] != y[key]:
                    self.disagree(f"{what}: {item.label}: {key}")

    def check_cli_repeats(self, passes: list[dict]) -> None:
        first = passes[0]["invocations"]
        for later in passes[1:]:
            for item, x, y in zip(self.plan.invocations, first,
                                  later["invocations"]):
                if x and y and x["digest"] != y["digest"]:
                    self.disagree(f"CLI repeat: {item.label}: "
                                  "certificate bytes")

    # -- the two kinds of run ----------------------------------------

    def passes(self, kinds) -> dict[str, list]:
        """Interleaved passes of the given kinds, repeated while another
        is expected to end within --seconds; always at least one."""
        out = {kind: [] for kind in kinds}
        t0 = perf_counter()
        while True:
            r0 = perf_counter()
            for kind, res in self.interleaved(len(out[kinds[0]]),
                                              kinds).items():
                out[kind].append(res)
            took = perf_counter() - r0
            if not (perf_counter() - t0 + took <= self.seconds
                    and 2 * took < self.remaining()):
                return out

    def measure_end_to_end(self) -> dict:
        setup, setup_scaled = self.setup_samples()
        runs = self.passes(("cli", "lib"))
        cli_passes = [p for p in runs["cli"] if p["complete"]]
        lib_passes = [p for p in runs["lib"] if p["complete"]]
        if not cli_passes or not lib_passes:
            raise RuntimeError("no complete pass: see the failures above")
        self.check_cli_repeats(cli_passes)
        cli_fields = [r and r["fields"] for r in cli_passes[0]["invocations"]]
        for lib in lib_passes:
            self.compare(cli_fields, lib["results"], "CLI vs library")
        n = len(self.plan.invocations)
        metrics = {
            "setup_s": statistics.median(setup_scaled),
            "cli_wall_s": statistics.median(p["scaled_s"] for p in cli_passes),
            "lib_wall_s": statistics.median(p["scaled_s"] for p in lib_passes),
            "peak_rss_mib": statistics.median(p["peak_rss_mib"]
                                              for p in cli_passes),
            "ok_share": (n - len(self.failures)) / n,
        }
        samples = {"setup_s": len(setup), "cli_wall_s": len(cli_passes),
                   "lib_wall_s": len(lib_passes),
                   "peak_rss_mib": len(cli_passes), "ok_share": n}
        self.details = {"wall_s": {
                            "setup_s": statistics.median(setup),
                            "cli_wall_s": statistics.median(
                                p["wall_s"] for p in cli_passes),
                            "lib_wall_s": statistics.median(
                                p["wall_s"] for p in lib_passes)},
                        "reference_s": self.reference_samples,
                        "setup_samples_s": setup,
                        "setup_scaled_s": setup_scaled,
                        "cli_passes": cli_passes,
                        "lib_passes": [{"wall_s": p["wall_s"],
                                        "scaled_s": p["scaled_s"],
                                        "spans": p["spans"],
                                        "results": p["results"]}
                                       for p in lib_passes]}
        return {name: {"value": metrics[name], "unit": E2E_UNITS[name],
                       "samples": samples[name]} for name in E2E_UNITS}

    def measure_layers(self) -> dict:
        imports = self.import_breakdown()
        runs = self.passes(("lib", "traced"))
        pairs = [(a, b) for a, b in zip(runs["lib"], runs["traced"])
                 if a["complete"] and b["complete"] and b["trace"]]
        if not pairs:
            raise RuntimeError("no complete traced pass")
        plain, traced = zip(*pairs)
        for lib, tr in pairs:
            self.compare(lib["results"], tr["results"], "untraced vs traced")
        summaries = [t["trace"] for t in traced]
        values: dict[str, float] = {}
        for name, source in LAYER_METRICS.items():
            per_pass = [layer_value(s, name, source) for s in summaries]
            if source in ("busy", "self"):
                values[name] = float(statistics.median(per_pass))
            else:
                if len(set(per_pass)) > 1:
                    self.disagree(f"count {name} differs between traced passes")
                values[name] = per_pass[0]
        enumerated = values["laurent.minors.enumerated"]
        values["laurent.minors.useful_ratio"] = (
            values["laurent.minors.distinct"] / enumerated
            if enumerated else 0.0)
        for part in ("numpy", "sympy", "invsub"):
            values[f"setup.import_{part}_s"] = statistics.median(
                s[part] for s in imports)
        lib_wall = statistics.median(p["wall_s"] for p in plain)
        traced_wall = statistics.median(p["wall_s"] for p in traced)
        values["trace.lib_wall_s"] = lib_wall
        values["trace.traced_wall_s"] = traced_wall
        values["trace.overhead_s"] = traced_wall - lib_wall
        values["machine.reference_s"] = statistics.median(
            s for _, s in self.reference_samples[self.kernels[0]])
        self.details = {"import_samples_s": imports,
                        "reference_s": self.reference_samples,
                        "lib_passes_s": [p["wall_s"] for p in plain],
                        "traced_passes_s": [p["wall_s"] for p in traced],
                        "trace_summaries": summaries}
        units = {name: "s" if source in ("busy", "self") else "count"
                 for name, source in LAYER_METRICS.items()}
        units.update(DERIVED_LAYER_UNITS)
        samples = len(traced)
        return {name: {"value": values[name], "unit": units[name],
                       "samples": (SETUP_SAMPLES if name.startswith("setup.")
                                   else samples)}
                for name in units}

    def execute(self) -> dict:
        metrics = (self.measure_layers() if self.trace
                   else self.measure_end_to_end())
        result = {
            "correct": not self.disagreements,
            "attempted": len(self.plan.invocations),
            "failed": len(self.failures),
            "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                        for k, v in metrics.items()},
        }
        self.write_report(metrics, result)
        return result

    # -- reporting ----------------------------------------------------

    def write_report(self, metrics: dict, result: dict) -> None:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = deps.get("blas", {})
        report = {
            "workload": self.workload, "seed": self.seed,
            "seconds": self.seconds, "trace": self.trace,
            "python": sys.version.split()[0],
            "blas": {"name": blas.get("name"), "version": blas.get("version"),
                     "threads": blas_threads()},
            "inputs": [{"label": i.label, "argv": i.argv(), "size": i.size,
                        "expect": i.expect, "pinned_digest": i.digest}
                       for i in self.plan.invocations],
            "failures": self.failures,
            "disagreements": self.disagreements,
            "metrics": metrics, "result": result, "details": self.details,
        }
        (self.workdir / "report.json").write_text(
            json.dumps(report, indent=1, default=str))
        self.print_summary(report)

    def print_summary(self, report: dict) -> None:
        r = report
        print(f"== {r['workload']} seed={r['seed']} trace={r['trace']} "
              f"python {r['python']}, BLAS {r['blas']['name']} "
              f"{r['blas']['version']} x{r['blas']['threads']} threads")
        cli = (r["details"].get("cli_passes") or [{}])[0].get("invocations")
        for k, item in enumerate(r["inputs"]):
            size = ",".join(f"{a}={b}" for a, b in item["size"].items())
            timing = ""
            if cli and cli[k]:
                timing = (f" cli {cli[k]['wall_s']:.2f}s "
                          f"rss {cli[k]['rss_mib']:.0f}MiB")
            status = "FAIL " + "; ".join(r["failures"][item["label"]]) \
                if item["label"] in r["failures"] else "ok"
            print(f"  {item['label']:<44} [{size}]{timing} {status}")
        for what in r["disagreements"]:
            print(f"  DISAGREE {what}")
        for name, m in r["metrics"].items():
            print(f"  {name:<44} {m['value']:>14.6g} {m['unit']:<6} "
                  f"(n={m['samples']})")
        for kernel, samples in r["details"].get("reference_s", {}).items():
            if samples:
                print(f"  {kernel} reference kernel: median "
                      f"{statistics.median(s for _, s in samples):.4f} s "
                      f"(n={len(samples)}), scaled to "
                      f"{REFERENCE_S[kernel]} s")
        for name, wall in r["details"].get("wall_s", {}).items():
            print(f"  {name + ' as measured':<44} {wall:>14.6g} s")
        res = r["result"]
        print(f"  attempted={res['attempted']} failed={res['failed']} "
              f"failed_share={res['failed'] / res['attempted']:.4f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run "
                             "(with --workload all, both kinds run)")
    args = parser.parse_args(argv)
    # Unwind on SIGTERM too, so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    if not (SRC / "invsub" / "cli.py").is_file():
        print(f"no invsub sources under {SRC}: run from a checkout",
              file=sys.stderr)
        return 2
    # The harness and every child it starts share one CPU: the speed of
    # a shared VM's CPUs moves independently, and the reference kernel
    # must be timed on the CPU the program runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.workload != "all":
        result = Run(args.workload, args.seed, args.seconds,
                     args.trace).execute()
        print(json.dumps(result))
        return 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = Run(workload, args.seed, args.seconds, trace).execute()
            combined["correct"] &= result["correct"]
            if not trace:
                combined["attempted"] += result["attempted"]
                combined["failed"] += result["failed"]
            for name, m in result["metrics"].items():
                combined["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
