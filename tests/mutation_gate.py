"""Mutation gate: every listed weakening of a proof's guard must fail a test.

Run from anywhere, with the test dependencies installed:

    python tests/mutation_gate.py

Each mutant is one text substitution in one file of ``src/stabcert``.  For
each, the script copies ``src/`` into a temporary directory, applies the
substitution there, and runs the mutant's tests with pytest against the
copy.  The mutant is killed when pytest fails.  The gate exits 1 when a
mutant survives, when a mutant's text does not occur exactly once in its
file (the source moved, and the list must follow it), or when the
unmutated copy already fails the tests.  The file name keeps pytest from
collecting it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PROOF = "tests/test_proof_constants.py"
COVER = "tests/test_verify.py::TestResolventCover"
THETAS = "tests/test_verify.py::TestExpm::test_each_theta_is_the_taylor_backward_error_bound"

# (what the mutant does, file under src/stabcert, text, replacement, tests)
MUTANTS = [
    # The Cholesky test's rounding allowance (verify._sigma_min_test).
    ("e = 0: drop the rounding of forming z I - B", "verify.py",
     "e = 2.0 * _U * np.sqrt(diagonal_sq.max(axis=1))",
     "e = 0.0 * np.sqrt(diagonal_sq.max(axis=1))", [PROOF]),
    ("complex w = gamma_(m+1) instead of sqrt(2) gamma_(2m+2)", "verify.py",
     "math.sqrt(2.0) * _gamma(2 * m + 2)", "_gamma(m + 1)", [PROOF]),
    ("allowance 0.3 w F instead of 3 w F", "verify.py",
     "3.0 * w * F", "0.3 * w * F", [PROOF]),
    ("allowance 0 w F", "verify.py",
     "3.0 * w * F", "0.0 * w * F", [PROOF]),
    ("drop the (1 + 8u) that rounds t up", "verify.py",
     "+ m * 2.0**-1070) * (1.0 + 8.0 * _U)", "+ m * 2.0**-1070)", [PROOF]),
    ("drop the (1 + 2 gamma_(m^2+4)) on F", "verify.py",
     " * (1.0 + 2.0 * _gamma(m * m + 4))", "", [PROOF]),
    # The square radius of verify._decide_squares.
    ("drop the (1 + 8u) on r + 1/bound", "verify.py",
     "(r + 1.0 / bound) * (1.0 + 8.0 * _U)", "(r + 1.0 / bound)", [PROOF]),
    ("drop the centre widening 2u (level + 2) max|z0|", "verify.py",
     " + 2.0 * _U * (level + 2) * float(np.abs(centres).max())", "", [PROOF]),
    ("radius half the side instead of the half-diagonal", "verify.py",
     "r = side / math.sqrt(2.0)", "r = side / 2.0", [PROOF]),
    ("cover a square when only the 1/bound test completes", "verify.py",
     "covered = _sigma_min_test(B, centres, (r + 1.0 / bound) * (1.0 + 8.0 * _U))",
     "covered = _sigma_min_test(B, centres, 1.0 / bound)", [PROOF, COVER]),
    # The trajectory's step exponential (verify._expm).
    *[(f"theta_{m} raised by 1 %", "verify.py", f"{m}: {theta},", f"{m}: {theta} * 1.01,", [THETAS])
      for m, theta in (("4", "3.397168839976961e-4"), ("9", "8.957760203223342e-2"),
                       ("16", "7.802874256626574e-1"), ("25", "2.428582524442826"))],
    ("one squaring fewer than frexp's exponent", "verify.py",
     "s = math.frexp(norm / _TAYLOR[25])[1] if",
     "s = math.frexp(norm / _TAYLOR[25])[1] - 1 if", [PROOF]),
    ("scale only from 2 theta_25 on", "verify.py",
     "if norm > _TAYLOR[25] else 0", "if norm > 2.0 * _TAYLOR[25] else 0", [PROOF]),
    # The power-of-two rescaling of verify.restriction_defects.
    ("rescale ||G||_F but not the residual", "verify.py",
     "np.linalg.norm(R * 2.0**-k)", "np.linalg.norm(R)", [PROOF]),
]


def _pytest(src: Path, tests: list[str]) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(src)}
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True)


def _copy(tmp: Path, file: str = "", old: str = "", new: str = "") -> Path:
    """A fresh copy of src/ under ``tmp``, with ``old`` replaced by ``new`` in ``file``."""
    src = Path(tempfile.mkdtemp(dir=tmp)) / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    if file:
        path = src / "stabcert" / file
        path.write_text(path.read_text().replace(old, new))
    return src


def main() -> int:
    failures = []
    for name, file, old, _, _ in MUTANTS:
        count = (ROOT / "src" / "stabcert" / file).read_text().count(old)
        if count != 1:
            failures.append(f"{name}: its text occurs {count} times in {file}, not once")
    if failures:
        print("\n".join(failures))
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        src = _copy(tmp)
        probe = subprocess.run(
            [sys.executable, "-c", "import stabcert; print(stabcert.__file__)"],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True)
        if not probe.stdout.startswith(str(src)):
            print(f"stabcert is not imported from the copy: {probe.stdout.strip() or probe.stderr}")
            return 1
        every_test = sorted({t for *_, tests in MUTANTS for t in tests})
        baseline = _pytest(src, every_test)
        if baseline.returncode:
            print("the unmutated source fails the gate's tests:\n" + baseline.stdout[-3000:])
            return 1
        for name, file, old, new, tests in MUTANTS:
            start = time.perf_counter()
            run = _pytest(_copy(tmp, file, old, new), tests)
            verdict = "killed" if run.returncode == 1 else "SURVIVED" if run.returncode == 0 else "ERROR"
            print(f"{verdict:8} {time.perf_counter() - start:5.1f} s  {name}", flush=True)
            if verdict != "killed":
                failures.append(name)
                if verdict == "ERROR":
                    print(run.stdout[-3000:] + run.stderr[-3000:])
    if failures:
        print(f"{len(failures)} of {len(MUTANTS)} mutants not killed: {failures}")
        return 1
    print(f"all {len(MUTANTS)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
