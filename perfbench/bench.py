"""Set-up, the timed closed loop, output checks and metrics for one workload.

Imported by ``run.py`` only after it has fixed the BLAS thread count, since
OpenBLAS reads it once, when numpy loads.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np
import scipy

import stabcert
from stabcert import cli

import tracing
import workloads

VERDICTS = (
    "audit_passed",
    "spectral_abscissa_sound",
    "sweep_at_zero_bounded",
    "sweep_at_half_bounded",
    "decay_at_least_certified",
)
SETUP_SAMPLES = 5  # this process plus four fresh ones
GOLDEN_RATIO = 1.618034


class SetupFailure(Exception):
    """The program failed a check that must pass before timing starts."""


# ---------------------------------------------------------------------------
# Provenance


def _openblas() -> dict[str, dict]:
    """Thread count and build string of each OpenBLAS that numpy and scipy load."""
    found = {}
    for pkg in (np, scipy):
        libs = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)), f"{pkg.__name__}.libs")
        for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
            lib = ctypes.CDLL(path)  # already loaded: same handle, same state
            for symbol in ("scipy_openblas{}64_", "scipy_openblas{}", "openblas{}"):
                get_threads = getattr(lib, symbol.format("_get_num_threads"), None)
                if get_threads is not None:
                    get_config = getattr(lib, symbol.format("_get_config"))
                    get_threads.restype = ctypes.c_int
                    get_config.restype = ctypes.c_char_p
                    found[os.path.basename(path)] = {
                        "threads": get_threads(),
                        "config": get_config().decode(),
                    }
                    break
    return found


def _git_sha(root: str) -> str | None:
    head_path = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return None
    with open(head_path, encoding="utf-8") as fh:
        head = fh.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = os.path.join(root, ".git", ref)
    if os.path.isfile(ref_path):
        with open(ref_path, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                sha, _, name = line.strip().partition(" ")
                if name == ref:
                    return sha
    return None


def provenance(root: str, blas_threads: int) -> dict:
    blas = _openblas()
    seen = {name: lib["threads"] for name, lib in blas.items()}
    if any(t != blas_threads for t in seen.values()):
        raise SetupFailure(f"asked OpenBLAS for {blas_threads} threads, it runs {seen}")
    return {
        "git_sha": _git_sha(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": {name: lib["config"] for name, lib in blas.items()},
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
        "blas_threads_seen": seen,
        "stabcert": stabcert.__file__,
    }


# ---------------------------------------------------------------------------
# Set-up


@dataclass
class Case:
    problem: workloads.Problem
    path: str
    report: str


def smoke_check(workdir: str) -> None:
    """Golden-ratio peak of the scalar system, then one scalar certify.

    The certify also pays the process's cold start (lazy imports, first
    LAPACK calls) before any timed call.
    """
    B = stabcert.assemble_generator(np.array([[1.0 + 0j]]), np.array([[1.0 + 0j]]))
    peak = stabcert.resolvent_norm(B, 0.0)
    if not abs(peak - GOLDEN_RATIO) <= 1e-6:
        raise SetupFailure(f"scalar resolvent norm at 0 is {peak!r}, expected {GOLDEN_RATIO}")
    one = np.eye(1, dtype=complex)
    scalar = workloads.Problem("scalar", one, one, one, one, False)
    path, out = os.path.join(workdir, "scalar.json"), os.path.join(workdir, "scalar.out.json")
    cli.dump_problem(scalar, path)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main(["certify", path, "-o", out])
    if rc != 0:
        raise SetupFailure(f"scalar certify exited {rc}: {err.getvalue().strip()}")
    with open(out, encoding="utf-8") as fh:
        verdicts = json.load(fh)["verdicts"]
    if not all(verdicts.get(v) is True for v in VERDICTS):
        raise SetupFailure(f"scalar certify verdicts {verdicts}")
    os.remove(out)
    # Reach the threaded BLAS paths, which the 1 x 1 certify never does: in a
    # cold process the first such call has taken 0.65 s against 5 ms after.
    stabcert.decompose(np.random.default_rng(0).standard_normal((96, 96)))


def setup(workload: str, seed: int, workdir: str) -> list[Case]:
    problems = workloads.WORKLOADS[workload](seed)
    cases = []
    for k, p in enumerate(problems):
        path = os.path.join(workdir, f"p{k:03d}.json")
        cli.dump_problem(p, path)
        cases.append(Case(p, path, os.path.join(workdir, f"p{k:03d}.out.json")))
    smoke_check(workdir)
    return cases


def setup_sample(run_py: str, workload: str, seed: int) -> float:
    """Set-up time of a fresh process, as that process measures it."""
    proc = subprocess.run(
        [sys.executable, run_py, "--workload", workload, "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=False,
    )
    if proc.returncode != 0:
        raise SetupFailure(f"set-up process exited {proc.returncode}: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Timed loop and checks


@dataclass
class Pass:
    wall: float
    latencies: list[float]
    traced: bool
    layers: dict | None = None


def run_pass(cases: list[Case]) -> tuple[float, list[float], list[tuple[int, str]]]:
    """Certify every case once, each call starting when the previous returns."""
    latencies, outcomes = [], []
    start = time.perf_counter()
    for case in cases:
        err = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stderr(err):
            try:
                rc = cli.main(["certify", case.path, "-o", case.report])
            except Exception:  # a crash is a failed call, not the end of the run
                rc = None
                traceback.print_exc()
        latencies.append(time.perf_counter() - t0)
        outcomes.append((rc, err.getvalue()))
    return time.perf_counter() - start, latencies, outcomes


class Checker:
    """Checks every certify call; keeps the certificate-quality figures."""

    def __init__(self, cases: list[Case]) -> None:
        self.refs = [workloads.reference(c.problem) for c in cases]
        self.digests: list[str | None] = [None] * len(cases)
        self.attempted = 0
        self.failures: list[str] = []
        self.rejected = 0
        self.ratio: list[float] = []
        self.log_m: list[float] = []

    def check_pass(self, cases: list[Case], outcomes: list[tuple[int, str]], first: bool) -> None:
        """Check one pass; the quality figures are taken from the first."""
        for k, (case, ref, (rc, err)) in enumerate(zip(cases, self.refs, outcomes)):
            self.attempted += 1
            why = self._check_call(k, case, ref, rc, err, first)
            if why:
                self.failures.append(f"{case.problem.name}: {why}")
            if os.path.exists(case.report):
                os.remove(case.report)

    def _check_call(self, k, case, ref, rc, err, first) -> str | None:
        if case.problem.expect_zero_range:
            try:
                error = json.loads(err.strip().splitlines()[-1])["error"]
            except (IndexError, ValueError, KeyError, TypeError):
                error = None
            if rc != 1 or error != "ZeroRangeOperator":
                return f"expected ZeroRangeOperator and exit 1, got exit {rc} {err.strip()[-300:]!r}"
            if os.path.exists(case.report):
                return "a refused problem wrote a report"
            self.rejected += first
            return None
        if rc != 0:
            return f"exit {rc} {err.strip()[-300:]!r}"
        try:
            with open(case.report, "rb") as fh:
                raw = fh.read()
            report = json.loads(raw)
            verdicts, cert = report["verdicts"], report["certificate"]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return f"unreadable report: {exc!r}"
        digest = hashlib.sha256(raw).hexdigest()
        if self.digests[k] is None:
            self.digests[k] = digest
        elif digest != self.digests[k]:
            return "report differs from the first pass"
        missing = [v for v in VERDICTS if v not in verdicts]
        false = [v for v, ok in verdicts.items() if ok is not True]
        if missing or false:
            return f"verdicts missing {missing}, not true {false}"
        p = case.problem
        if (cert["n0"], cert["n1"], cert["rank"]) != (p.alpha.shape[0], p.beta.shape[0], ref.rank):
            return f"sizes {cert['n0']}, {cert['n1']}, rank {cert['rank']} disagree with the oracle"
        delta, m_total = cert["delta_cert"], cert["M_total"]
        if not (delta > 0 and m_total is not None and math.isfinite(m_total) and m_total > 0):
            return f"degenerate certificate delta_cert={delta!r} M_total={m_total!r}"
        if not ref.abscissa <= -delta + 1e-9:
            return f"max Re eig(B_res) = {ref.abscissa!r} > -delta_cert = {-delta!r}"
        if first:
            self.ratio.append(delta / -ref.abscissa)
            self.log_m.append(math.log10(m_total))
        return None


def _nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: str,
            t_start: float, run_py: str, root: str, blas_threads: int) -> dict:
    """Set up, run the closed loop for ``seconds`` and return the full record."""
    prov = provenance(root, blas_threads)
    tracer = tracing.Tracer() if trace else None
    if tracer:
        tracer.install()
    cases = setup(workload, seed, workdir)
    setup_own = time.perf_counter() - t_start
    setup_spans = tracer.take() if tracer else []

    checker = Checker(cases)
    passes: list[Pass] = []
    pass_spans: list[list[tracing.Span]] = []
    t0 = time.perf_counter()
    while True:
        # The traced run alternates traced and untraced passes, traced first.
        traced = bool(tracer) and len(passes) % 2 == 0
        if traced:
            tracer.install()
        elif tracer:
            tracer.uninstall()
        wall, latencies, outcomes = run_pass(cases)
        layers = None
        if traced:
            spans = tracer.take()
            layers = tracing.pass_metrics(spans)
            pass_spans.append(spans)
        passes.append(Pass(wall, latencies, traced, layers))
        checker.check_pass(cases, outcomes, first=len(passes) == 1)
        if checker.failures:
            break
        done = time.perf_counter() - t0 >= seconds
        if done and (not tracer or any(not p.traced for p in passes)):
            break
    if tracer:
        tracer.uninstall()

    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "provenance": prov,
        "sizes": [
            {"problem": c.problem.name, "n0": c.problem.alpha.shape[0],
             "n1": c.problem.beta.shape[0], "rank": ref.rank, "m": ref.m}
            for c, ref in zip(cases, checker.refs)
        ],
        "failures": checker.failures[:20],
    }
    attempted, failed = checker.attempted, len(checker.failures)
    if trace:
        traced = [p for p in passes if p.traced]
        untraced = [p for p in passes if not p.traced]  # empty only after a failed pass
        names = traced[0].layers.keys()
        layers = {n: statistics.median(p.layers[n] for p in traced) for n in names}
        build = [s for s in setup_spans if s.name == "maxwell.build_maxwell_system"]
        layers["maxwell.build_maxwell_system_s"] = sum(s.end - s.start for s in build)
        layers["trace.overhead_s"] = (
            statistics.median(p.wall for p in traced) - statistics.median(p.wall for p in untraced)
            if untraced else 0.0
        )
        metrics = {n: {"value": v, "unit": _unit(n)} for n, v in layers.items()}
        record["spans"] = {
            "setup": [tracing.as_dict(s) for s in setup_spans],
            "passes": [[tracing.as_dict(s) for s in spans] for spans in pass_spans],
        }
    else:
        setup_times = [setup_own] + [
            setup_sample(run_py, workload, seed) for _ in range(SETUP_SAMPLES - 1)
        ]
        latencies = [x for p in passes for x in p.latencies]
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "run_s": (statistics.median(p.wall for p in passes), "s"),
            "certify_p50_s": (statistics.median(latencies), "s"),
            "delta_cert_ratio": (statistics.median(checker.ratio) if checker.ratio else 0.0, "ratio"),
            "M_total_log10": (statistics.median(checker.log_m) if checker.log_m else 0.0, "log10"),
            "ok_share": ((attempted - failed) / attempted, "share"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        metrics = {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}
        record["details"] = {
            "setup_samples_s": setup_times,
            "passes": len(passes),
            "pass_walls_s": [p.wall for p in passes],
            "certify_samples": len(latencies),
            "failed_share": failed / attempted,
            "rank_zero_rejections": checker.rejected,
            "certified": len(checker.ratio),
        }
        if len(latencies) >= 200:
            record["details"]["certify_p95_s"] = _nearest_rank(latencies, 0.95)
    record["result"] = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return record


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share") or name.endswith("_margin"):
        return "ratio"
    return "count"
