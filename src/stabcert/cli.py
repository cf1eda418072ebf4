"""Command line driver: problem files in, report files out.

This is the only module with I/O; ``certify`` serializes what
:func:`stabcert.certificate.audit_system` returns, its resolvent cover as
one ``cover`` record, and the other commands call single steps of the
chain (``sweep`` samples one line, for diagnostics).  ``certify`` and
``sweep`` load through :func:`load_problem`, which refuses a file too large
to audit before parsing its matrices; ``simulate`` and ``reduce`` skip that
guard and read files of any size.  Problem and report files are JSON with
complex numbers stored as two-element [re, im] arrays and a
``schema_version`` gate.  Problem files are written as one line of compact
JSON, the fastest layout for json's encoder, and read in any layout;
reports are indented, because people read them.  Reports embed the exact
formula strings behind every certified constant and the seed used for any
randomized initial data, so identical inputs produce byte-identical reports.
Every command runs with numpy's bundled OpenBLAS pinned to one thread, so
reports do not depend on the thread count either; with another BLAS the
thread count is left alone, and changing it may move the last digits.

Exit codes: 0 when every recorded verdict passes, 2 when any verdict
fails, 1 on malformed or invalid input, usage errors included (with a
single-line JSON error on stderr).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from ._blas import single_blas_thread
from .errors import StabcertError
from .model import validate_system
from .normalize import normalize_system
from .helmholtz import decompose, decoupling_transforms, restricted_generator
from .certificate import FORMULAS, audit_system, prepare, refuse_oversized
from .maxwell import GridSpec, build_maxwell_system
from .verify import (
    admissible_start,
    fit_decay_rate,
    gp_sweep,
    random_components,
    restricted_simulate,
)

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# JSON (de)serialization


def matrix_to_json(M) -> list:
    M = np.asarray(M, dtype=complex)
    return np.stack([M.real, M.imag], -1).tolist()


def _from_pairs(arr: np.ndarray) -> np.ndarray:
    """Complex view of trailing [re, im] pairs: unlike re + 1j*im, it keeps -0.0."""
    return np.ascontiguousarray(arr).view(complex)[..., 0]


def matrix_from_json(data, name: str) -> np.ndarray:
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} is not a nested [re, im] array") from exc
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ValueError(f"{name} must be a 2-D array of [re, im] pairs")
    return _from_pairs(arr)


def _finite(x):
    """JSON has no infinities; represent non-finite values as None."""
    if x is None:
        return None
    x = float(x)
    return x if math.isfinite(x) else None


def _read_problem(path: str) -> dict:
    """The problem file's JSON object, after the checks that parse no matrix."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("problem file must be a JSON object")
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {version!r}")
    # Every threshold is fixed in the code; a file that sets one is refused,
    # not certified under thresholds other than the ones it asks for.
    key = "tolerances"
    if key in data:
        raise ValueError(f"problem file key {key!r} is no longer supported; remove it")
    return data


def _system_from(data: dict):
    matrices = {}
    for name in ("alpha", "beta", "gamma", "C"):
        if name not in data:
            raise ValueError(f"problem file is missing {name!r}")
        matrices[name] = matrix_from_json(data[name], name)
    return validate_system(matrices["alpha"], matrices["beta"], matrices["gamma"], matrices["C"])


def load_problem(path: str):
    """The validated system of a problem file that ``certify`` or ``sweep`` audits.

    A file whose ``alpha`` has more rows than the audit admits is refused
    right after it is read, before its matrices are converted and validated.
    ``simulate`` and ``reduce`` bypass this loader on purpose: they read
    through ``_read_problem`` and ``_system_from`` and take files of any size.
    """
    data = _read_problem(path)
    if isinstance(data.get("alpha"), list):
        refuse_oversized(len(data["alpha"]))
    return _system_from(data)


def dump_problem(system, path: str) -> None:
    """Write ``system`` to ``path`` as one line of compact JSON."""
    payload = {
        "schema_version": SCHEMA_VERSION,
        "alpha": matrix_to_json(system.alpha),
        "beta": matrix_to_json(system.beta),
        "gamma": matrix_to_json(system.gamma),
        "C": matrix_to_json(system.C),
    }
    _write_json(payload, path, indent=None)


def _write_json(payload: dict, path: str | None, indent: int | None = 2) -> None:
    # indent=None keeps json on its C encoder; any indent selects the
    # pure-Python one, about seven times slower on a grid problem.
    text = json.dumps(payload, indent=indent, sort_keys=True, allow_nan=False)
    if path is None:
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _sweep_summary(report) -> dict:
    return {
        "abscissa": report.abscissa,
        "lambdas": [float(x) for x in report.lambdas],
        "norms": [_finite(x) for x in report.norms],
        "max_norm": _finite(report.max_norm),
        "singular_points": [float(x) for x in report.singular_points],
    }


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_certify(args) -> int:
    system = load_problem(args.problem)
    audit = audit_system(system, seed=args.seed)
    report = {
        "schema_version": SCHEMA_VERSION,
        "certificate": dataclasses.asdict(audit.certificate),
        "formulas": FORMULAS,
        "oracles": {
            "spectral_abscissa_restricted": audit.abscissa,
            "fitted_decay_rate": audit.fitted_rate,
            "restriction_residual": audit.restriction_residual,
            "frame_defect": audit.frame_defect,
        },
        "cover": dataclasses.asdict(audit.cover),
        "trajectory": {
            "t_end": audit.trace.times[-1],
            "samples": len(audit.trace.times),
            "seed": args.seed,
            "projection_residual": audit.projection_residual,
            "fitted_rate": audit.fitted_rate,
            "method": audit.trace.method,
        },
        "verdicts": audit.checks,
    }
    _write_json(report, args.output)
    return 0 if all(audit.checks.values()) else 2


def _cmd_sweep(args) -> int:
    B_res = prepare(load_problem(args.problem)).B_res
    report_data = gp_sweep(B_res, args.abscissa, args.lambda_max, args.points)
    report = {
        "schema_version": SCHEMA_VERSION,
        "operator": "normalized generator restricted to H0 x ran(coupling)",
        "sweep": _sweep_summary(report_data),
    }
    _write_json(report, args.output)
    return 0


def _cmd_simulate(args) -> int:
    system = _system_from(_read_problem(args.problem))
    ns = normalize_system(system)
    n0, n1 = system.n0, system.n1
    if args.u0 is not None:
        with open(args.u0, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        expected = f"u0 must be a list of {n0 + n1} [re, im] pairs"
        try:
            arr = np.asarray(raw, dtype=float)
        except TypeError as exc:
            raise ValueError(expected) from exc
        if arr.ndim != 2 or arr.shape != (n0 + n1, 2):
            raise ValueError(expected)
        u0, v_raw = np.split(_from_pairs(arr), [n0])
    else:
        u0, v_raw = random_components(args.seed, n0, n1)
    frames = decompose(ns.D)
    U0, residual = admissible_start(ns, frames, u0, v_raw)
    # The routine certify's trajectory takes, so a run with certify's seed,
    # t_end and samples reproduces its trajectory exactly.
    B_res = restricted_generator(ns.gamma_tilde, frames)
    trace = restricted_simulate(B_res, frames, U0, args.t_end, args.samples)
    try:
        fitted = fit_decay_rate(trace)
    except StabcertError:
        fitted = None
    report = {
        "schema_version": SCHEMA_VERSION,
        "variables": "normalized (unit weights)",
        "seed": None if args.u0 is not None else args.seed,
        "projection_residual": residual,
        "times": [float(t) for t in trace.times],
        "state_norms": [float(x) for x in trace.state_norms],
        "fitted_rate": _finite(fitted),
        "method": trace.method,
    }
    _write_json(report, args.output)
    return 0


def _cmd_reduce(args) -> int:
    system = _system_from(_read_problem(args.problem))
    ns = normalize_system(system)
    frames = decompose(ns.D)
    try:
        re_s, im_s = args.z.split(",")
        z = complex(float(re_s), float(im_s))
    except ValueError as exc:
        raise ValueError(f"--z must be RE,IM, got {args.z!r}") from exc
    blocks = decoupling_transforms(ns.gamma_tilde, frames, z, ns.c_gamma_tilde)
    report = {
        "schema_version": SCHEMA_VERSION,
        "z": [z.real, z.imag],
        "rank": frames.r,
        "sigma_min_pos": frames.sigma_min_pos,
        "frames": {
            "iota0": matrix_to_json(frames.iota0),
            "kappa0": matrix_to_json(frames.kappa0),
            "iota1": matrix_to_json(frames.iota1),
            "kappa1": matrix_to_json(frames.kappa1),
        },
        "C_tilde": matrix_to_json(frames.C_tilde),
        "T1": matrix_to_json(blocks.T1),
        "T2": matrix_to_json(blocks.T2),
        "schur_block": matrix_to_json(blocks.gamma1_z),
        "kernel_block": matrix_to_json(blocks.gamma2),
    }
    _write_json(report, args.output)
    return 0


def _cmd_maxwell_gen(args) -> int:
    spec = GridSpec(N=args.n, h=args.h)
    system = build_maxwell_system(spec, eps=args.eps, mu=args.mu, sigma=args.sigma)
    dump_problem(system, args.output)
    return 0


# ---------------------------------------------------------------------------
# Entry point


def _seed(text: str) -> int:
    """A random seed: numpy's generators take only non-negative integers."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ValueError, so that it exits 1, not 2."""

    def error(self, message):
        raise ValueError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``stabcert`` parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(
        prog="stabcert",
        description="Certify exponential decay of damped block systems and audit the constants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", help="run the full certificate plus the fixed oracle audits")
    p.add_argument("problem")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("sweep", help="resolvent norms along a vertical line")
    p.add_argument("problem")
    p.add_argument("--abscissa", type=float, required=True)
    p.add_argument("--lambda-max", type=float, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("simulate", help="sample a semigroup trajectory")
    p.add_argument("problem")
    p.add_argument("--t-end", type=float, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--u0", default=None, help="JSON file with [re, im] pairs")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("reduce", help="emit frames, transforms and the Schur block")
    p.add_argument("problem")
    p.add_argument("--z", required=True, help="frequency as RE,IM")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("maxwell-gen", help="write a damped periodic-grid problem file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--h", type=float, default=1.0)
    p.add_argument("--eps", type=float, default=1.0)
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_maxwell_gen)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        with single_blas_thread():
            return args.func(args)
    except (StabcertError, ValueError, OSError, json.JSONDecodeError) as exc:
        line = json.dumps({"error": type(exc).__name__, "detail": str(exc)})
        print(line, file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
