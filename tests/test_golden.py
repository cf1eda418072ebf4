"""Golden ``certify`` reports: a change that moves a certificate must say so.

Each problem is built here from its seed and certified through the command
line; its report, ``formulas`` left out, must equal the one stored in
``tests/data``.  Ints, bools, strings and nulls must be equal; floats must
agree to 1e-12 relative or 1e-12 absolute, since rounding-level residuals
differ between LAPACK builds.  A change that means to move a certificate
rewrites the goldens with

    PYTHONPATH=src:tests python tests/test_golden.py

and says in its notes which fields moved.
"""

import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import stabcert as sc
from stabcert import cli

from helpers import random_block_system, random_real_block_system

DATA = Path(__file__).parent / "data"


def _per_cell_grid():
    rng = np.random.default_rng(20260810)
    return sc.build_maxwell_system(
        sc.GridSpec(N=3), eps=rng.uniform(1.0, 2.0, 27), sigma=rng.uniform(0.5, 1.5, 27)
    )


PROBLEMS = {
    "scalar": lambda: SimpleNamespace(**dict.fromkeys(("alpha", "beta", "gamma", "C"), np.ones((1, 1)))),
    "rank-none-real": lambda: random_real_block_system(np.random.default_rng(31), 3, 0, 0),
    "rank-partial-complex": lambda: random_block_system(np.random.default_rng(32), 4, 3, 2),
    "rank-full-real": lambda: random_real_block_system(np.random.default_rng(33), 2, 3, 2),
    "grid-n3-per-cell": _per_cell_grid,
}


def certify_report(name: str, workdir: Path) -> dict:
    """The ``certify`` report of one problem, without its ``formulas``."""
    problem, report = workdir / f"{name}.json", workdir / f"{name}-report.json"
    cli.dump_problem(PROBLEMS[name](), str(problem))
    assert cli.main(["certify", str(problem), "-o", str(report)]) == 0
    data = json.loads(report.read_text())
    del data["formulas"]
    return data


def _differences(got, want, path="report"):
    if isinstance(want, float) and type(got) is float:
        if not math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12):
            yield f"{path}: {got!r} != {want!r}"
    elif isinstance(want, dict) and isinstance(got, dict):
        if got.keys() != want.keys():
            yield f"{path}: keys {sorted(got)} != {sorted(want)}"
        for key in want.keys() & got.keys():
            yield from _differences(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        for k, (g, w) in enumerate(zip(got, want)):
            yield from _differences(g, w, f"{path}[{k}]")
    elif type(got) is not type(want) or got != want:
        yield f"{path}: {got!r} != {want!r}"


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_report_matches_its_golden(name, tmp_path):
    want = json.loads((DATA / f"golden-{name}.json").read_text())
    assert list(_differences(certify_report(name, tmp_path), want)) == []


def test_differences_are_exact_but_for_floats():
    want = {"a": 1, "b": [0.5, True], "c": None, "d": "x"}
    assert list(_differences({"a": 1, "b": [0.5 * (1 + 1e-13), True], "c": None, "d": "x"}, want)) == []
    for got in (
        {"a": 1.0, "b": [0.5, True], "c": None, "d": "x"},
        {"a": 1, "b": [0.5, 1], "c": None, "d": "x"},
        {"a": 1, "b": [0.5 * (1 + 1e-11), True], "c": None, "d": "x"},
        {"a": 1, "b": [0.5], "c": None, "d": "x"},
        {"a": 1, "b": [0.5, True], "c": 0.0, "d": "x"},
        {"a": 1, "b": [0.5, True], "d": "x"},
    ):
        assert list(_differences(got, want)), got


if __name__ == "__main__":
    import tempfile

    DATA.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(PROBLEMS):
            report = certify_report(name, Path(tmp))
            (DATA / f"golden-{name}.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
