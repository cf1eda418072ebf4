import dataclasses
import importlib.util
import json
import math
import os
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import stabcert as sc
from stabcert import cli
from stabcert._blas import _openblas_threads
from stabcert.cli import main, matrix_from_json, matrix_to_json, load_problem


def _payload(alpha, beta, gamma, C):
    return {
        "schema_version": 1,
        "alpha": matrix_to_json(np.asarray(alpha, dtype=complex)),
        "beta": matrix_to_json(np.asarray(beta, dtype=complex)),
        "gamma": matrix_to_json(np.asarray(gamma, dtype=complex)),
        "C": matrix_to_json(np.asarray(C, dtype=complex)),
    }


def _plain(M):
    """A real block as the 2-D array of plain numbers a problem file stores."""
    return np.asarray(M, dtype=float).tolist()


def _is_set(x) -> bool:
    """Whether any bit of an entry is set: nonzero, or a zero with a sign bit."""
    c = complex(x)
    return c != 0 or math.copysign(1.0, c.real) < 0 or math.copysign(1.0, c.imag) < 0


def _coordinates(M):
    """A block as the coordinate object a problem file stores, row by row."""
    M = np.asarray(M)
    stored = [(i, j, x) for (i, j), x in np.ndenumerate(M) if _is_set(x)]
    value = (lambda x: [x.real, x.imag]) if M.dtype.kind == "c" else float
    return {"shape": list(M.shape), "rows": [i for i, _, _ in stored],
            "cols": [j for _, j, _ in stored], "values": [value(x) for _, _, x in stored]}


def _write_problem(path, alpha, beta, gamma, C, **layout):
    path.write_text(json.dumps(_payload(alpha, beta, gamma, C), **layout))
    return str(path)


# The layout maxwell-gen wrote before problem files became one line.
LEGACY = {"indent": 2, "sort_keys": True}


@pytest.fixture()
def scalar_problem(tmp_path):
    return _write_problem(tmp_path / "scalar.json", [[1.0]], [[1.0]], [[1.0]], [[1.0]])


@pytest.fixture()
def jordan_problem(tmp_path):
    # gamma = 2 and C = 1: the generator [[-2, 1], [-1, 0]] has the double
    # eigenvalue -1 and one eigenvector, a Jordan block.
    return _write_problem(tmp_path / "jordan.json", [[1.0]], [[1.0]], [[2.0]], [[1.0]])


def test_maxwell_gen_then_certify(tmp_path):
    problem = tmp_path / "m.json"
    report = tmp_path / "r.json"
    assert main(["maxwell-gen", "--n", "3", "--eps", "1", "--mu", "1", "--sigma", "1",
                 "-o", str(problem)]) == 0
    code = main(["certify", str(problem), "-o", str(report)])
    assert code == 0
    data = json.loads(report.read_text())
    assert data["certificate"]["delta_cert"] > 0
    assert all(data["verdicts"].values())
    assert data["formulas"]["d"].startswith("0.5*min")


def test_problem_round_trip(tmp_path):
    # h = 0.3 gives curl entries that no short decimal represents exactly.
    problem = tmp_path / "m.json"
    assert main(["maxwell-gen", "--n", "3", "--h", "0.3", "-o", str(problem)]) == 0
    direct = sc.build_maxwell_system(sc.GridSpec(N=3, h=0.3))
    matrices = (direct.alpha, direct.beta, direct.gamma, direct.C)
    text = problem.read_text()
    # Every block is real, so each stores plain numbers, and every block is
    # stored as coordinates: the curl holds no -0.0, so C's 324 set entries
    # take 3 * 324 numbers against 6561 dense ones.
    assert sum(map(_is_set, direct.C.flat)) == 324
    expected = {"schema_version": 1,
                **{n: _coordinates(getattr(direct, n)) for n in ("alpha", "beta", "gamma", "C")}}
    assert text == json.dumps(expected, sort_keys=True) + "\n"
    assert text.count("\n") == 1
    system = load_problem(str(problem))
    legacy = load_problem(_write_problem(tmp_path / "legacy.json", *matrices, **LEGACY))
    # Every stored imaginary part is +0.0, so each block loads as float64,
    # and its real parts bit for bit.
    for name in ("alpha", "beta", "gamma", "C"):
        built = getattr(direct, name)
        assert built.dtype == np.float64
        for loaded in (system, legacy):
            assert getattr(loaded, name).dtype == np.float64
            assert getattr(loaded, name).tobytes() == built.tobytes()
    again = tmp_path / "again.json"
    cli.dump_problem(system, str(again))
    assert again.read_bytes() == problem.read_bytes()


@pytest.mark.parametrize("imag", [-0.0, 0.25])
def test_an_imaginary_part_keeps_its_block_complex_through_a_round_trip(tmp_path, imag):
    # One stored imaginary part of gamma set to -0.0 or 0.25: gamma loads as
    # complex128, the other blocks as float64, and a dump writes gamma with
    # [re, im] pairs and the others with plain numbers.  The dense file
    # written here and the coordinate file dumped from it load to the same
    # bits, and a second dump rewrites the first byte for byte.
    direct = sc.build_maxwell_system(sc.GridSpec(N=3, h=0.3))
    payload = {"schema_version": 1, "gamma": matrix_to_json(direct.gamma),
               **{n: _plain(getattr(direct, n)) for n in ("alpha", "beta", "C")}}
    payload["gamma"][0][1][1] = imag
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps(payload, sort_keys=True) + "\n")
    expected = direct.gamma.astype(complex)
    expected[0, 1] = complex(0.0, imag)
    files = [problem, tmp_path / "once.json", tmp_path / "twice.json"]
    for path, dumped in zip(files, files[1:]):
        system = load_problem(str(path))
        for name in ("alpha", "beta", "C"):
            assert getattr(system, name).dtype == np.float64
            assert getattr(system, name).tobytes() == getattr(direct, name).tobytes()
        assert system.gamma.dtype == np.complex128
        assert system.gamma.tobytes() == expected.tobytes()
        cli.dump_problem(system, str(dumped))
    assert files[2].read_bytes() == files[1].read_bytes()
    gamma = json.loads(files[1].read_text())["gamma"]
    assert gamma == _coordinates(expected)
    assert gamma["values"][1] == [0.0, imag]


def test_certify_reads_any_problem_layout(tmp_path):
    # The dumped file stores coordinates and plain numbers; copies with
    # every block as plain numbers or as [re, im] pairs, compact and
    # indented, load the same block bytes and certify to the same report.
    # -0.0 planted on the zero diagonal of C is kept by every layout: the
    # dump stores its 81 entries among C's coordinates.
    built = sc.build_maxwell_system(sc.GridSpec(N=3), sigma=0.7)
    C = built.C.copy()
    C[np.diag_indices_from(C)] = -0.0
    system = sc.validate_system(built.alpha, built.beta, built.gamma, C)
    assert np.signbit(system.C[system.C == 0]).sum() == 81
    blocks = (system.alpha, system.beta, system.gamma, system.C)
    compact = tmp_path / "compact.json"
    cli.dump_problem(system, str(compact))
    assert len(json.loads(compact.read_text())["C"]["values"]) == 324 + 81
    again = tmp_path / "again.json"
    cli.dump_problem(load_problem(str(compact)), str(again))
    assert again.read_bytes() == compact.read_bytes()
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps({"schema_version": 1, **dict(zip(
        ("alpha", "beta", "gamma", "C"), map(_plain, blocks)))}))
    paths = [str(compact), str(plain), _write_problem(tmp_path / "pairs.json", *blocks),
             _write_problem(tmp_path / "legacy.json", *blocks, **LEGACY)]
    reports = []
    for k, path in enumerate(paths):
        loaded = load_problem(path)
        for name, built in zip(("alpha", "beta", "gamma", "C"), blocks):
            assert getattr(loaded, name).dtype == np.float64
            assert getattr(loaded, name).tobytes() == built.tobytes()
        reports.append(tmp_path / f"r{k}.json")
        assert main(["certify", path, "-o", str(reports[-1])]) == 0
    assert len({r.read_bytes() for r in reports}) == 1


def test_zero_complex_coupling_is_stored_as_plain_numbers(tmp_path):
    # Every imaginary part is +0.0, so a complex zero C is written as the
    # float64 block it loads as: no entry has a bit set, so it is stored as
    # coordinates with an empty list of plain values.
    one = np.eye(1, dtype=complex)
    system = SimpleNamespace(alpha=one, beta=2 * np.eye(2, dtype=complex), gamma=one,
                             C=np.zeros((2, 1), dtype=complex))
    path = tmp_path / "p.json"
    cli.dump_problem(system, str(path))
    assert json.loads(path.read_text())["C"] == {"shape": [2, 1], "rows": [], "cols": [],
                                                 "values": []}
    loaded = load_problem(str(path))
    for name in ("alpha", "beta", "gamma", "C"):
        assert getattr(loaded, name).dtype == np.float64


def test_real_grid_loads_without_pairs(grid_problem, monkeypatch):
    calls, from_pairs = [], cli._from_pairs
    monkeypatch.setattr(cli, "_from_pairs", lambda arr: calls.append(arr.shape) or from_pairs(arr))
    system = load_problem(grid_problem)
    assert calls == []
    assert system.C.dtype == np.float64


def test_refused_problem_leaves_no_file(tmp_path, capsys):
    # The text is built before the file is opened.
    inf = np.array([[np.inf]], dtype=complex)
    system = SimpleNamespace(alpha=inf, beta=inf, gamma=inf, C=inf)
    path = tmp_path / "p.json"
    with pytest.raises(ValueError):
        cli.dump_problem(system, str(path))
    assert not path.exists()
    assert main(["maxwell-gen", "--n", "3", "--h", "inf", "-o", str(path)]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ParameterOutOfRange"
    assert not path.exists()


def test_certify_rejects_undamped_system(tmp_path, capsys):
    spec = sc.GridSpec(N=2)
    curl = sc.build_curl(spec)
    n = curl.K.shape[0]
    problem = _write_problem(
        tmp_path / "undamped.json", np.eye(n), np.eye(n), np.zeros((n, n)), curl.K
    )
    code = main(["certify", problem])
    assert code == 1
    err = capsys.readouterr().err.strip()
    parsed = json.loads(err)
    assert parsed["error"] == "NotCoercive"


def test_sweep_scalar_benchmark(scalar_problem, tmp_path):
    report = tmp_path / "sweep.json"
    code = main([
        "sweep", scalar_problem,
        "--abscissa", "0", "--lambda-max", "10", "--points", "201",
        "-o", str(report),
    ])
    assert code == 0
    data = json.loads(report.read_text())
    assert data["sweep"]["max_norm"] >= 1.618 - 1e-3
    assert data["sweep"]["singular_points"] == []


def test_simulate_records_projection_residual(tmp_path):
    problem = _write_problem(
        tmp_path / "p.json", np.eye(2), np.eye(2), np.eye(2), [[0.0, 2.0], [0.0, 0.0]]
    )
    report = tmp_path / "sim.json"
    u0_file = tmp_path / "u0.json"
    u0_file.write_text(json.dumps([[1.0, 0.0], [0.0, 0.0], [1.0, 0.0], [1.0, 0.0]]))
    code = main([
        "simulate", problem, "--t-end", "20", "--samples", "401",
        "--u0", str(u0_file), "-o", str(report),
    ])
    assert code == 0
    data = json.loads(report.read_text())
    # second block component (1, 1) projects onto ran(C) = span e1
    assert data["projection_residual"] == pytest.approx(1.0, abs=1e-10)
    assert len(data["state_norms"]) == 401


def test_simulate_refuses_u0_object(scalar_problem, tmp_path, capsys):
    # Also a ragged list, which numpy refuses with its own text, string
    # pairs, which a conversion to float would parse as numbers, and a
    # boolean among numbers, which numpy would take as 1.0.
    u0_file = tmp_path / "u0.json"
    argv = ["simulate", scalar_problem, "--t-end", "1", "--samples", "11", "--u0", str(u0_file)]
    for u0 in ({"a": 1}, [[1.0, 0.0], [1.0]], [["1.0", "0"], ["0", "0"]], [[True, 0.0], [0.0, 0.0]]):
        u0_file.write_text(json.dumps(u0))
        assert main(argv) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": "ValueError",
                                        "detail": "u0 must be a list of 2 [re, im] pairs"}


def test_simulate_seed_reproduces_certify_trajectory(scalar_problem, tmp_path):
    cert_out, sim_out = tmp_path / "c.json", tmp_path / "s.json"
    assert main(["certify", scalar_problem, "--seed", "0", "-o", str(cert_out)]) == 0
    assert main([
        "simulate", scalar_problem, "--seed", "0", "--t-end", "20", "--samples", "801",
        "-o", str(sim_out),
    ]) == 0
    trajectory = json.loads(cert_out.read_text())["trajectory"]
    sim = json.loads(sim_out.read_text())
    assert sim["fitted_rate"] == trajectory["fitted_rate"]
    assert sim["projection_residual"] == trajectory["projection_residual"]


def test_simulate_too_short_to_fit_writes_a_null_rate(scalar_problem, tmp_path):
    # 12 samples up to t = 1 are too few for the decay fit, which raises a
    # StabcertError; the trajectory is still written, with no rate.
    out = tmp_path / "s.json"
    argv = ["simulate", scalar_problem, "--t-end", "1", "--samples", "12", "-o", str(out)]
    assert main(argv) == 0
    data = json.loads(out.read_text())
    assert data["fitted_rate"] is None
    assert len(data["state_norms"]) == 12
    assert "method" not in data


def test_certify_prints_the_report_it_writes(scalar_problem, tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["certify", scalar_problem, "-o", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert main(["certify", scalar_problem]) == 0
    assert capsys.readouterr().out == out.read_text()
    # Keys that held no information are gone from the report.
    report = json.loads(out.read_text())
    assert "fitted_decay_rate" not in report["oracles"]
    assert "method" not in report["trajectory"]
    assert report["certificate"]["audit"].keys() == {
        "halvings", "max_resolvent_norm", "re_range", "im_range", "grid_shape"}


def test_reduce_emits_transforms(scalar_problem, tmp_path):
    out = tmp_path / "red.json"
    code = main(["reduce", scalar_problem, "--z", "0.5,1.0", "-o", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["rank"] == 1
    assert data["sigma_min_pos"] == pytest.approx(1.0)
    assert np.asarray(data["T1"]).shape == (2, 2, 2)
    assert np.asarray(data["schur_block"]).shape == (1, 1, 2)


def test_reduce_bad_frequency_argument(scalar_problem):
    assert main(["reduce", scalar_problem, "--z", "nonsense"]) == 1


def test_malformed_json_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["certify", str(bad)]) == 1
    err = capsys.readouterr().err.strip()
    assert json.loads(err)["error"] in ("JSONDecodeError", "ValueError")


def test_missing_file_is_input_error():
    assert main(["certify", "/nonexistent/problem.json"]) == 1


def test_wrong_schema_version(tmp_path, capsys):
    # True == 1 in Python, so an equality test alone accepts true.
    f = tmp_path / "v2.json"
    for version in (2, True):
        f.write_text(json.dumps({"schema_version": version}))
        assert main(["certify", str(f)]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "ValueError", "detail": f"unsupported schema_version {version!r}"}


@pytest.mark.parametrize("alpha", [[[["1.0", "0"]]], [["1.0"]], [[True]], [[None]]])
def test_non_numeric_entry_is_refused(scalar_problem, capsys, alpha):
    # Converted with dtype=float, the strings would parse as numbers.
    path = Path(scalar_problem)
    payload = json.loads(path.read_text())
    payload["alpha"] = alpha
    path.write_text(json.dumps(payload))
    assert main(["certify", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": "ValueError",
                               "detail": "alpha is not a nested array of numbers"}


@pytest.mark.parametrize(
    "tolerances", [{"rank_rel_tol": 1e-3}, {"rank_tol": 1e-8}, [1, 2], {"solve_tol": "x"}]
)
def test_tolerances_key_is_refused(tmp_path, capsys, tolerances):
    # A 1e-3 rank cutoff would drop the 1e-4 singular value and certify
    # decay for a mode whose rate is about 1e-8.
    path = Path(_write_problem(tmp_path / "p.json", np.eye(2), np.eye(2), np.eye(2),
                               np.diag([1.0, 1e-4])))
    payload = json.loads(path.read_text())
    payload["tolerances"] = tolerances
    path.write_text(json.dumps(payload))
    assert main(["certify", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    parsed = json.loads(err)
    assert parsed["error"] == "ValueError"
    assert "'tolerances'" in parsed["detail"]


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--abscissa", "0", "--lambda-max", "0", "--points", "11"],
        ["sweep", "--abscissa", "0", "--lambda-max", "-5", "--points", "11"],
        ["sweep", "--abscissa", "nan", "--lambda-max", "10", "--points", "11"],
    ],
)
def test_invalid_sweep_range_is_refused(scalar_problem, capsys, argv):
    # lambda_max = 0 sweeps z = 0 11 times and reports it bounded, a
    # negative one reverses the grid, and a nan abscissa breaks the SVD.
    assert main([argv[0], scalar_problem, *argv[1:]]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ParameterOutOfRange"


@pytest.mark.parametrize("flag", ["--lambda-max", "--points", "--t-end", "--samples"])
def test_certify_has_one_recipe(scalar_problem, capsys, flag):
    # The oracle settings are fixed; sweep and simulate take custom ones.
    assert main(["certify", scalar_problem, flag, "5"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert flag in json.loads(err)["detail"]


@pytest.mark.parametrize(
    "argv", [["certify"], ["simulate", "--t-end", "1", "--samples", "11"]]
)
def test_negative_seed_is_refused_before_loading(scalar_problem, monkeypatch, capsys, argv):
    # numpy's generators refuse a negative seed, but only after the problem
    # was loaded and, in certify, certified; the refusal did not name --seed.
    loads = []
    monkeypatch.setattr(cli, "_read_problem", lambda path: loads.append(path))
    assert main([argv[0], scalar_problem, *argv[1:], "--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "--seed" in json.loads(err)["detail"]
    assert loads == []


def test_weak_coupling_is_not_certified(tmp_path, capsys):
    # The second mode decays at a rate near 1e-20.  Dropping the 1e-10
    # coupling would certify decay while the state stays near 1e-11.
    problem = _write_problem(
        tmp_path / "p.json", np.eye(2), np.eye(2), np.eye(2), np.diag([1.0, 9.999999e-11])
    )
    assert main(["certify", problem]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "CertificateFailure"


def test_certify_reports_are_deterministic(tmp_path):
    problem = _write_problem(
        tmp_path / "p.json", np.eye(2), np.eye(1), np.eye(2), [[1.0, 0.0]]
    )
    r1, r2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["certify", problem, "-o", str(r1)]) == 0
    assert main(["certify", problem, "-o", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def _count_steps(monkeypatch, fns):
    """Count calls of ``fns`` wherever stabcert holds them, and of np.linalg.eig/eigvals.

    Returns the counter and the shapes of the eig/eigvals arguments.
    """
    calls = Counter()
    shapes = []
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "stabcert" or n.startswith("stabcert."))]
    for fn in fns:
        def counted(*args, _fn=fn, **kwargs):
            calls[_fn.__name__] += 1
            return _fn(*args, **kwargs)

        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is fn:
                    monkeypatch.setattr(m, attr, counted)
    for name in ("eig", "eigvals"):
        def counted(a, _fn=getattr(np.linalg, name)):
            calls[_fn.__name__] += 1
            shapes.append(np.shape(a))
            return _fn(a)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls, shapes


def test_certify_runs_each_step_once(tmp_path, monkeypatch):
    # Rank 1 with n0 = n1 = 2: B_res has 3 rows, the full generator 4.
    problem = _write_problem(
        tmp_path / "p.json", np.eye(2), np.eye(2), np.eye(2), [[1.0, 0.0], [0.0, 0.0]]
    )
    calls, shapes = _count_steps(monkeypatch, (
        sc.normalize_system, sc.decompose, sc.restricted_generator, sc.spectral_abscissa, sc.simulate,
        sc.certificate.measure, sc.certificate.chain,
    ))
    assert main(["certify", problem, "-o", str(tmp_path / "r.json")]) == 0
    # decompose runs on D only; the admissible start reuses its frames.  The
    # abscissa is the eigenvalues of B_res alone, and the trajectory takes
    # no eigensolve: no eigenvectors are computed, and the full generator is
    # never decomposed.
    assert calls == {
        "normalize_system": 1, "decompose": 1, "restricted_generator": 1,
        "spectral_abscissa": 1, "eigvals": 1, "measure": 1, "chain": 1,
    }
    assert shapes == [(3, 3)]


def test_overlapped_grid_certify_runs_each_step_once(grid_problem, tmp_path, monkeypatch):
    # The N = 3 grid (m = 133) with a second CPU forced: the abscissa is one
    # lock-free eigvals call on the worker, padded to a stack of four.
    monkeypatch.setattr(sc.certificate, "usable_cpus", lambda: 2)
    calls, shapes = _count_steps(monkeypatch, (
        sc.normalize_system, sc.decompose, sc.verify.resolvent_cover,
        sc.certificate.measure, sc.certificate.chain,
    ))
    assert main(["certify", grid_problem, "-o", str(tmp_path / "r.json")]) == 0
    assert calls == {
        "normalize_system": 1, "decompose": 1, "resolvent_cover": 1, "eigvals": 1,
        "measure": 1, "chain": 1,
    }
    assert shapes == [(4, 133, 133) if _openblas_threads() is not None else (133, 133)]


@pytest.mark.parametrize("corruption", ["scaled iota1", "rotated iota0"])
def test_corrupted_frames_fail_the_restriction_verdict(tmp_path, monkeypatch, corruption):
    # With gamma = I both corruptions leave B_res, and so the certificate and
    # the cover, unchanged.  Scaling iota1 breaks F* F = I; rotating iota0
    # towards kappa0 keeps the frames orthonormal but leaves C_tilde stale,
    # which breaks G F = F B_res.  Only the restriction verdict sees either.
    problem = _write_problem(
        tmp_path / "p.json", np.eye(2), np.eye(2), np.eye(2), [[1.0, 0.0], [0.0, 0.0]]
    )
    decompose = sc.decompose

    def corrupted(C):
        f = decompose(C)
        if corruption == "scaled iota1":
            return dataclasses.replace(f, iota1=f.iota1 * (1.0 + 1e-6))
        c, s = np.cos(1e-3), np.sin(1e-3)
        i0, k0 = f.iota0[:, :1], f.kappa0[:, :1]
        return dataclasses.replace(f, iota0=c * i0 + s * k0, kappa0=c * k0 - s * i0)

    for m in [m for n, m in list(sys.modules.items())
              if m is not None and (n == "stabcert" or n.startswith("stabcert."))]:
        for attr, value in list(vars(m).items()):
            if value is decompose:
                monkeypatch.setattr(m, attr, corrupted)
    out = tmp_path / "r.json"
    assert main(["certify", problem, "-o", str(out)]) == 2
    report = json.loads(out.read_text())
    assert [v for v, ok in report["verdicts"].items() if not ok] == ["restriction_consistent"]
    defect = "frame_defect" if corruption == "scaled iota1" else "restriction_residual"
    assert report["oracles"][defect] > 1e-10


def test_certify_refuses_oversized_audit(tmp_path, capsys):
    n = 330  # restricted generator of 660 rows
    eye = np.eye(n)
    problem = _write_problem(tmp_path / "big.json", eye, eye, eye, eye)
    assert main(["certify", problem]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "GridTooLarge"


@pytest.mark.parametrize("argv", [["certify"], ["sweep", "--abscissa", "0", "--lambda-max", "1", "--points", "3"]])
def test_oversized_problem_is_refused_before_parsing(tmp_path, monkeypatch, capsys, argv):
    # 641 rows of alpha exceed the audit limit; the other matrices are not
    # even arrays, so any conversion or validation would fail differently.
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"schema_version": 1, "alpha": [[]] * 641, "beta": [[1]],
                                "gamma": "ragged", "C": [[[0, 0]], []]}))
    calls = []
    for name in ("matrix_from_json", "validate_system"):
        monkeypatch.setattr(cli, name, lambda *a, _name=name: calls.append(_name))
    assert main([argv[0], str(path), *argv[1:]]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "GridTooLarge", "detail": "n0 = 641 rows already exceed the audit limit 640"}
    assert calls == []


def test_matrix_to_json_keeps_every_bit():
    # The per-element formula it replaces, byte for byte: signed zeros,
    # subnormals and the largest finite double included.
    def per_element(M):
        return [[[float(x.real), float(x.imag)] for x in row] for row in M]

    tiny = np.nextafter(0.0, 1.0)
    M = np.array([[complex(-0.0, 0.0), complex(-0.0, -0.0), complex(tiny, -tiny)],
                  [complex(1e-310, 2.5e-320), complex(np.finfo(float).max, -1 / 3), 1e300 - 7e-8j]])
    for A in (M, M.T, M[:0], M[:, :0], np.eye(3), np.array([[1]])):
        assert json.dumps(matrix_to_json(A)) == json.dumps(per_element(np.asarray(A, dtype=complex)))
    assert json.dumps(matrix_to_json(M)).startswith("[[[-0.0, 0.0], [-0.0, -0.0], [5e-324, -5e-324]]")


def test_matrix_from_json_keeps_signed_zeros():
    data = [[[-0.0, 0.0], [1.0, -0.0]]]
    M = matrix_from_json(data, "M")
    assert json.dumps(matrix_to_json(M)) == "[[[-0.0, 0.0], [1.0, -0.0]]]"


_ENTRIES = st.sampled_from([0.0, -0.0]) | st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _blocks(draw):
    """Real and complex blocks, zeros and -0.0 frequent, all-zero and empty shapes included."""
    shape = (draw(st.integers(0, 4)), draw(st.integers(0, 4)))
    n = shape[0] * shape[1]
    kind = draw(st.sampled_from(["real", "complex", "real zero", "complex zero"]))
    M = np.zeros(shape, dtype=float if kind.startswith("real") else complex)
    if kind.endswith("zero"):
        return M
    M.real = np.reshape(draw(st.lists(_ENTRIES, min_size=n, max_size=n)), shape)
    if kind == "complex":
        M.imag = np.reshape(draw(st.lists(_ENTRIES, min_size=n, max_size=n)), shape)
    return M


@settings(max_examples=300, deadline=None)
@given(M=_blocks())
def test_block_round_trip_keeps_every_bit(M):
    # The file keeps every entry with a bit set, -0.0 included, and picks the
    # coordinate form exactly when it holds no more numbers than the dense one.
    expected = M.real.copy() if not M.imag.view(np.uint64).any() else M
    text = json.dumps(cli._block_to_json(M), sort_keys=True, allow_nan=False)
    per_entry = 2 if expected.dtype.kind == "c" else 1
    stored = sum(map(_is_set, M.flat))
    data = json.loads(text)
    assert isinstance(data, dict) == ((2 + per_entry) * stored <= per_entry * M.size)
    if isinstance(data, dict):
        assert data == _coordinates(expected)
    loaded = matrix_from_json(data, "M")
    assert loaded.dtype == expected.dtype
    assert loaded.shape == M.shape
    assert np.array_equal(loaded.view(np.uint64), expected.view(np.uint64))
    assert json.dumps(cli._block_to_json(loaded), sort_keys=True, allow_nan=False) == text


def test_empty_blocks_round_trip(tmp_path):
    # With n1 = 0, beta is 0 x 0 and C is 0 x 2.  Dense, both were written
    # as [], which reads as neither shape; coordinates carry the shape.
    system = sc.validate_system(np.eye(2), np.zeros((0, 0)), np.eye(2), np.zeros((0, 2)))
    problem, report = tmp_path / "p.json", tmp_path / "r.json"
    cli.dump_problem(system, str(problem))
    data = json.loads(problem.read_text())
    assert [data[n]["shape"] for n in ("beta", "C")] == [[0, 0], [0, 2]]
    loaded = load_problem(str(problem))
    assert (loaded.beta.shape, loaded.C.shape) == ((0, 0), (0, 2))
    assert main(["certify", str(problem), "-o", str(report)]) == 0
    audit = sc.audit_system(system)
    assert all(audit.checks.values())
    certificate = json.loads(json.dumps(dataclasses.asdict(audit.certificate)))
    assert json.loads(report.read_text())["certificate"] == certificate


def _coordinate_problem(path, **changes):
    """A scalar problem whose blocks are coordinates; ``changes`` maps a block to edited fields."""
    one = {"shape": [1, 1], "rows": [0], "cols": [0], "values": [1.0]}
    payload = {"schema_version": 1, **{n: dict(one) for n in ("alpha", "beta", "gamma", "C")}}
    for name, fields in changes.items():
        payload[name] = {**payload[name], **fields}
        payload[name] = {k: v for k, v in payload[name].items() if v is not None}
    path.write_text(json.dumps(payload))
    return str(path)


_SHAPE = "alpha shape must be two non-negative integers"
_VALUES = "alpha values must be a list of numbers or of [re, im] pairs"


@pytest.mark.parametrize(
    "changes, detail",
    [
        ({"alpha": {"shape": [1]}}, _SHAPE),
        ({"alpha": {"shape": [1, -1]}}, _SHAPE),
        ({"alpha": {"shape": [True, 1]}}, "alpha holds a JSON boolean"),
        ({"alpha": {"shape": [1.0, 1]}}, _SHAPE),
        ({"beta": {"shape": None}}, "beta must hold exactly the keys ['cols', 'rows', 'shape', 'values']"),
        ({"C": {"fill": 0.0}}, "C must hold exactly the keys ['cols', 'rows', 'shape', 'values']"),
        ({"alpha": {"rows": [0.0]}}, "alpha rows must be a list of integers"),
        ({"alpha": {"rows": [True]}}, "alpha holds a JSON boolean"),
        ({"beta": {"cols": ["0"]}}, "beta cols must be a list of integers"),
        ({"alpha": {"rows": [[0]]}}, "alpha rows must be a list of integers"),
        ({"gamma": {"rows": [0, 0]}}, "gamma rows, cols and values differ in length"),
        ({"alpha": {"rows": [1]}}, "alpha rows holds an index out of range"),
        ({"C": {"cols": [-1]}}, "C cols holds an index out of range"),
        ({"alpha": {"shape": [2, 2], "rows": [0, 1, 0], "cols": [1, 1, 1], "values": [0.0, 1.0, 0.0]}},
         "alpha repeats a coordinate"),
        ({"alpha": {"values": ["1.0"]}}, _VALUES),
        ({"alpha": {"values": [[1.0, 0.0, 0.0]]}}, _VALUES),
        ({"alpha": {"values": [None]}}, _VALUES),
        ({"alpha": {"values": 1.0}}, _VALUES),
    ],
)
def test_malformed_coordinate_block_is_refused(tmp_path, capsys, changes, detail):
    problem = _coordinate_problem(tmp_path / "p.json", **changes)
    assert main(["certify", problem]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": "ValueError", "detail": detail}


def test_coordinate_problem_certifies(tmp_path):
    problem = _coordinate_problem(tmp_path / "p.json")
    assert main(["certify", problem, "-o", str(tmp_path / "r.json")]) == 0


@pytest.mark.parametrize("argv", [["certify"], ["sweep", "--abscissa", "0", "--lambda-max", "1", "--points", "3"]])
def test_oversized_coordinate_problem_is_refused_before_parsing(tmp_path, monkeypatch, capsys, argv):
    # The declared shape alone refuses it; the other blocks are malformed.
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"schema_version": 1, "beta": [[1]], "gamma": "ragged", "C": {},
                                "alpha": {"shape": [641, 641], "rows": [], "cols": [], "values": []}}))
    calls = []
    for name in ("matrix_from_json", "validate_system"):
        monkeypatch.setattr(cli, name, lambda *a, _name=name: calls.append(_name))
    assert main([argv[0], str(path), *argv[1:]]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "GridTooLarge", "detail": "n0 = 641 rows already exceed the audit limit 640"}
    assert calls == []


@pytest.mark.parametrize(
    "argv",
    [["certify"], ["simulate", "--t-end", "1", "--samples", "3"], ["reduce", "--z", "1,0"]],
)
def test_coordinate_shape_over_the_cap_is_refused_before_any_array(tmp_path, monkeypatch, capsys, argv):
    # About 200 bytes that would ask for a 40000 x 40000 beta.
    path = tmp_path / "huge.json"
    empty = {"rows": [], "cols": [], "values": []}
    path.write_text(json.dumps({"schema_version": 1, "alpha": [[1.0]], "gamma": [[1.0]],
                                "beta": {"shape": [40000, 40000], **empty},
                                "C": {"shape": [40000, 1], **empty}}))
    calls = []
    monkeypatch.setattr(np, "zeros", lambda *a, **k: calls.append("zeros"))
    monkeypatch.setattr(cli, "matrix_from_json", lambda *a: calls.append("matrix_from_json"))
    assert main([argv[0], str(path), *argv[1:]]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": "ValueError",
                               "detail": "beta shape 40000 x 40000 exceeds the 4194304 entries of a coordinate block"}
    assert calls == []


def test_block_over_the_cap_is_written_densely(tmp_path, monkeypatch):
    # A shape the reader refuses as coordinates is never written so.
    monkeypatch.setattr(cli, "_MAX_COORDINATE_ENTRIES", 8)
    assert cli._block_to_json(np.zeros((2, 4)))["shape"] == [2, 4]
    assert cli._block_to_json(np.zeros((3, 3))) == np.zeros((3, 3)).tolist()
    with pytest.raises(ValueError, match="M shape 3 x 3 exceeds the 8 entries"):
        matrix_from_json({"shape": [3, 3], "rows": [], "cols": [], "values": []}, "M")
    system = sc.validate_system(np.eye(3), np.eye(1), np.eye(3), np.zeros((1, 3)))
    cli.dump_problem(system, str(tmp_path / "p.json"))
    data = json.loads((tmp_path / "p.json").read_text())
    assert [isinstance(data[n], dict) for n in ("alpha", "beta", "gamma", "C")] == [False, False, False, True]
    loaded = load_problem(str(tmp_path / "p.json"))
    assert all(getattr(loaded, n).tobytes() == getattr(system, n).tobytes() for n in ("alpha", "beta", "gamma", "C"))


@pytest.mark.parametrize(
    "alpha, detail",
    [
        ([[True, 0.0], [0.0, 1.5]], "alpha is not a nested array of numbers"),
        ([[[1.0, 0.0], [False, 0.0]], [[0.0, 0.0], [1.5, 0.0]]], "alpha is not a nested array of numbers"),
        ({"shape": [2, 2], "rows": [0, True], "cols": [0, 1], "values": [1.0, 1.5]},
         "alpha holds a JSON boolean"),
        ({"shape": [2, 2], "rows": [0, 1], "cols": [0, 1], "values": [True, 1.5]},
         "alpha holds a JSON boolean"),
    ],
)
def test_boolean_among_numbers_is_refused(tmp_path, capsys, alpha, detail):
    # numpy promotes a boolean mixed with numbers to 0 or 1.
    problem = _write_problem(tmp_path / "p.json", np.eye(2), np.eye(2), np.eye(2), np.eye(2))
    payload = json.loads(Path(problem).read_text())
    payload["alpha"] = alpha
    Path(problem).write_text(json.dumps(payload))
    assert main(["certify", problem]) == 1
    assert json.loads(capsys.readouterr().err) == {"error": "ValueError", "detail": detail}


def test_boolean_scan_runs_only_on_text_that_holds_one(grid_problem, tmp_path, monkeypatch):
    calls, scan = [], cli._holds_boolean
    monkeypatch.setattr(cli, "_holds_boolean", lambda data: calls.append(1) or scan(data))
    load_problem(grid_problem)
    assert calls == []
    payload = json.loads(Path(grid_problem).read_text())
    payload["note"] = "true"
    noted = tmp_path / "noted.json"
    noted.write_text(json.dumps(payload))
    system = load_problem(str(noted))
    assert calls
    assert system.C.tobytes() == load_problem(grid_problem).C.tobytes()


def _scipy_modules_after(argv, report):
    """The scipy modules loaded by ``cli.main(argv + ['-o', report])`` in a fresh process."""
    code = (
        "import sys, stabcert\n"
        "from stabcert import cli\n"
        f"assert cli.main({argv!r} + ['-o', {str(report)!r}]) == 0\n"
        "print(sorted(n for n in sys.modules if n.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(sc.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_certify_loads_no_scipy(scalar_problem, jordan_problem, tmp_path):
    # stabcert does not depend on scipy, and importing scipy.linalg would
    # cost more than the certify itself.
    for problem in (scalar_problem, jordan_problem):
        assert _scipy_modules_after(["certify", problem], tmp_path / "r.json") == "[]"


def test_simulate_loads_no_scipy(jordan_problem, tmp_path):
    # The trajectory on this defective generator once took a scipy path.
    argv = ["simulate", jordan_problem, "--t-end", "5", "--samples", "101"]
    assert _scipy_modules_after(argv, tmp_path / "r.json") == "[]"


def test_cached_parser_keeps_no_state(scalar_problem, tmp_path):
    # main parses with one parser per process; a --seed given to one call
    # must not become the default of the next.
    assert cli.build_parser() is cli.build_parser()
    out = {name: tmp_path / f"{name}.json" for name in ("five", "default", "zero")}
    assert main(["certify", scalar_problem, "--seed", "5", "-o", str(out["five"])]) == 0
    assert main(["certify", scalar_problem, "-o", str(out["default"])]) == 0
    assert main(["certify", scalar_problem, "--seed", "0", "-o", str(out["zero"])]) == 0
    assert out["default"].read_bytes() == out["zero"].read_bytes()
    assert json.loads(out["five"].read_text())["trajectory"]["seed"] == 5


def _load_perfbench_tracing(monkeypatch):
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    return tracing


def test_benchmark_tracer_sees_each_step(scalar_problem, tmp_path, monkeypatch):
    # perfbench/tracing.py wraps functions by module and name; a rename
    # under src/ must fail here rather than in the benchmark's traced run.
    tracing = _load_perfbench_tracing(monkeypatch)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main(["certify", scalar_problem, "-o", str(tmp_path / "r.json")]) == 0
    finally:
        tracer.uninstall()
    metrics = tracing.pass_metrics(tracer.take())
    assert metrics["normalize.normalize_system_calls"] == 1
    assert metrics["helmholtz.decompose_calls"] == 1
    assert metrics["certificate.audit_resolvent_evals"] == 1
    assert metrics["verify.sweep_resolvent_evals"] == 0


def test_sweep_refuses_oversized_generator(scalar_problem, monkeypatch, capsys):
    # sweep builds B_res through prepare, so the audit's size guard applies.
    monkeypatch.setattr(sc.certificate, "_MAX_AUDIT_DIM", 1)
    argv = ["sweep", scalar_problem, "--abscissa", "0", "--lambda-max", "10", "--points", "11"]
    assert main(argv) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "GridTooLarge"


def test_sweep_of_rank_zero_coupling(tmp_path):
    # certify refuses a rank-zero coupling; the oracle sweep still runs.
    problem = _write_problem(tmp_path / "p.json", np.eye(2), np.eye(2), np.eye(2), np.zeros((2, 2)))
    out = tmp_path / "sweep.json"
    argv = ["sweep", problem, "--abscissa", "0", "--lambda-max", "10", "--points", "11", "-o", str(out)]
    assert main(argv) == 0
    assert json.loads(out.read_text())["sweep"]["singular_points"] == []


@pytest.mark.parametrize(
    "argv, u0",
    [
        (["reduce", "--z", "1,nan"], None),
        (["reduce", "--z", "inf,0"], None),
        (["simulate", "--t-end", "inf", "--samples", "11"], None),
        (["simulate", "--t-end", "1", "--samples", "11"], [[1.0, 0.0], [float("nan"), 0.0]]),
    ],
)
def test_non_finite_input_is_refused(scalar_problem, tmp_path, capsys, argv, u0):
    # Without the check the run completes and fails only when JSON refuses nan.
    if u0 is not None:
        u0_file = tmp_path / "u0.json"
        u0_file.write_text(json.dumps(u0))
        argv = [*argv, "--u0", str(u0_file)]
    assert main([argv[0], scalar_problem, *argv[1:]]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ParameterOutOfRange"


@pytest.fixture()
def grid_problem(tmp_path):
    path = str(tmp_path / "grid.json")
    assert main(["maxwell-gen", "--n", "3", "--eps", "1", "--mu", "1", "--sigma", "1",
                 "-o", path]) == 0
    return path


@pytest.mark.skipif(_openblas_threads() is None, reason="numpy bundles no OpenBLAS here")
def test_certify_report_does_not_depend_on_blas_threads(grid_problem, tmp_path):
    # On this grid 1 and 2 OpenBLAS threads moved the last digits of the
    # report while certify ran at the environment's thread count.
    src = str(Path(sc.__file__).resolve().parents[1])
    reports = []
    for threads in ("1", "2"):
        report = tmp_path / f"r{threads}.json"
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-m", "stabcert.cli", "certify", grid_problem,
                               "-o", str(report)], capture_output=True, text=True, env=env,
                              timeout=120, check=False)
        assert proc.returncode == 0, proc.stderr
        reports.append(report.read_bytes())
    assert reports[0] == reports[1]


def test_overlapped_cover_calls_nothing_the_tracer_wraps(grid_problem, tmp_path, monkeypatch):
    # perfbench/tracing.py keeps one span stack for the process, so only the
    # calling thread may enter a traced function.
    tracing = _load_perfbench_tracing(monkeypatch)
    monkeypatch.setattr(sc.certificate, "usable_cpus", lambda: 2)
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "stabcert" or n.startswith("stabcert."))]
    threads = set()
    for mod_name, names in tracing.TRACED.items():
        for name in names:
            fn = getattr(sys.modules[f"stabcert.{mod_name}"], name)

            def spy(*args, _fn=fn, **kwargs):
                threads.add(threading.current_thread())
                return _fn(*args, **kwargs)

            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        monkeypatch.setattr(m, attr, spy)
    cover_threads, eigvals_threads = [], []

    def cover(*args):
        cover_threads.append(threading.current_thread())
        return sc.verify.resolvent_cover(*args)

    def eigvals(B):
        eigvals_threads.append(threading.current_thread())
        return sc.verify._unlocked_eigvals(B)

    monkeypatch.setattr(sc.certificate, "resolvent_cover", cover)
    monkeypatch.setattr(sc.certificate, "_unlocked_eigvals", eigvals)
    assert main(["certify", grid_problem, "-o", str(tmp_path / "r.json")]) == 0
    assert threads == {threading.current_thread()}
    # The cover runs on this thread; the eigensolve on the worker, where the
    # BLAS pin holds (without it certify runs serially).
    assert cover_threads == [threading.current_thread()]
    assert len(eigvals_threads) == (_openblas_threads() is not None)
    assert threading.current_thread() not in eigvals_threads
