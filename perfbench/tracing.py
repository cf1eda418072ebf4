"""Spans around the public functions of each stabcert module.

The traced run wraps the functions listed in ``TRACED`` from outside: every
module attribute that holds one of them is replaced by a wrapper that
records a span (name, start, end, parent) and is restored afterwards.
Nothing under ``src/`` changes.  Spans stay in memory; a layer's self time
is its span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

TRACED = {
    "cli": ("main", "load_problem"),
    "model": ("validate_system",),
    "normalize": ("normalize_system", "map_state"),
    "helmholtz": ("decompose", "restricted_generator"),
    "certificate": ("full_certificate", "invertible_certificate", "optimize_shift"),
    "verify": (
        "spectral_abscissa",
        "gp_sweep",
        "admissible_initial",
        "assemble_generator",
        "simulate",
        "fit_decay_rate",
    ),
    "maxwell": ("build_maxwell_system",),
}


def _certificate_info(cert) -> dict:
    audit = cert.audit
    points = audit.grid_shape[0] * audit.grid_shape[1]
    return {
        "audit_evals": (audit.halvings + 1) * points,
        "halvings": audit.halvings,
        "margin": audit.max_resolvent_norm / cert.M_total,
        "dim": cert.n0 + cert.rank,
    }


# Counts read from return values, where the work is done.
_INFO = {
    "certificate.full_certificate": _certificate_info,
    "verify.gp_sweep": lambda report: {"evals": len(report.lambdas)},
    "verify.simulate": lambda trace: {"eig": trace.method == "eig"},
}


@dataclass
class Span:
    name: str
    parent: int  # index of the enclosing span, -1 for a root
    start: float = 0.0
    end: float = 0.0
    info: dict = field(default_factory=dict)


class Tracer:
    """Installs span-recording wrappers and keeps the spans they record."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, info = self.spans, self._stack, _INFO.get(name)

        def wrapper(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if info is not None:
                span.info = info(result)
            return result

        return wrapper

    def install(self) -> None:
        if self._patched:
            return
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "stabcert" or n.startswith("stabcert."))]
        for mod_name, fn_names in TRACED.items():
            mod = sys.modules[f"stabcert.{mod_name}"]
            for fn_name in fn_names:
                original = getattr(mod, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._patched.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    def take(self) -> list[Span]:
        """Return the spans recorded so far and start a fresh list."""
        taken = list(self.spans)
        self.spans.clear()
        return taken


def as_dict(span: Span) -> dict:
    return {"name": span.name, "start": span.start, "end": span.end, "parent": span.parent}


def self_times(spans: list[Span]) -> list[float]:
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def pass_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass over a workload's problems.

    Times are seconds summed over the pass; counts are totals for the
    pass; ``audit_margin`` and ``resolvent_dim`` are medians over the
    certified calls.  Raises ValueError if the self times do not add up
    to the duration of the root spans.
    """
    selfs = self_times(spans)
    self_s, total_s, calls = defaultdict(float), defaultdict(float), Counter()
    for s, t in zip(spans, selfs):
        self_s[s.name] += t
        total_s[s.name] += s.end - s.start
        calls[s.name] += 1
    root_s = sum(s.end - s.start for s in spans if s.parent < 0)
    if not math.isclose(sum(selfs), root_s, rel_tol=1e-9, abs_tol=1e-9):
        raise ValueError(f"self times add up to {sum(selfs)!r}, root spans to {root_s!r}")

    certs = [s.info for s in spans if s.name == "certificate.full_certificate" and s.info]
    sims = [s.info["eig"] for s in spans if s.name == "verify.simulate" and s.info]
    return {
        "cli.self_s": self_s["cli.main"],
        "cli.load_problem_s": self_s["cli.load_problem"],
        "model.validate_system_s": self_s["model.validate_system"],
        "normalize.normalize_system_s": self_s["normalize.normalize_system"],
        "normalize.normalize_system_calls": calls["normalize.normalize_system"],
        "normalize.map_state_s": self_s["normalize.map_state"],
        "helmholtz.decompose_s": self_s["helmholtz.decompose"],
        "helmholtz.decompose_calls": calls["helmholtz.decompose"],
        "helmholtz.restricted_generator_s": self_s["helmholtz.restricted_generator"],
        "helmholtz.restricted_generator_calls": calls["helmholtz.restricted_generator"],
        "certificate.full_certificate_s": total_s["certificate.full_certificate"],
        "certificate.audit_s": self_s["certificate.full_certificate"],
        "certificate.invertible_certificate_s": self_s["certificate.invertible_certificate"],
        "certificate.optimize_shift_s": self_s["certificate.optimize_shift"],
        "certificate.optimize_shift_calls": calls["certificate.optimize_shift"],
        "certificate.audit_resolvent_evals": sum(c["audit_evals"] for c in certs),
        "certificate.audit_halvings": sum(c["halvings"] for c in certs),
        "certificate.audit_margin": statistics.median(c["margin"] for c in certs) if certs else 0.0,
        "certificate.resolvent_dim": statistics.median(c["dim"] for c in certs) if certs else 0,
        "verify.spectral_abscissa_s": self_s["verify.spectral_abscissa"],
        "verify.gp_sweep_s": self_s["verify.gp_sweep"],
        "verify.sweep_resolvent_evals": sum(s.info["evals"] for s in spans if s.name == "verify.gp_sweep" and s.info),
        "verify.admissible_initial_s": self_s["verify.admissible_initial"],
        "verify.assemble_generator_s": self_s["verify.assemble_generator"],
        "verify.simulate_s": self_s["verify.simulate"],
        "verify.simulate_eig_share": sum(sims) / len(sims) if sims else 0.0,
        "verify.fit_decay_rate_s": self_s["verify.fit_decay_rate"],
        "trace.spans": len(spans),
    }
