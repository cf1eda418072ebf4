import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

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


def _write_problem(path, alpha, beta, gamma, C, **layout):
    path.write_text(json.dumps(_payload(alpha, beta, gamma, C), **layout))
    return str(path)


# The layout maxwell-gen wrote before problem files became one line.
LEGACY = {"indent": 2, "sort_keys": True}


@pytest.fixture()
def scalar_problem(tmp_path):
    return _write_problem(tmp_path / "scalar.json", [[1.0]], [[1.0]], [[1.0]], [[1.0]])


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
    assert text == json.dumps(_payload(*matrices), sort_keys=True) + "\n"
    assert text.count("\n") == 1
    system = load_problem(str(problem))
    legacy = load_problem(_write_problem(tmp_path / "legacy.json", *matrices, **LEGACY))
    # Every stored imaginary part is +0.0, so each block loads as float64,
    # and its real parts bit for bit (-0.0 included).
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
    # complex128, the other blocks as float64, and a dump rewrites the file.
    direct = sc.build_maxwell_system(sc.GridSpec(N=3, h=0.3))
    payload = _payload(direct.alpha, direct.beta, direct.gamma, direct.C)
    payload["gamma"][0][1][1] = imag
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps(payload, sort_keys=True) + "\n")
    system = load_problem(str(problem))
    for name in ("alpha", "beta", "C"):
        assert getattr(system, name).dtype == np.float64
        assert getattr(system, name).tobytes() == getattr(direct, name).tobytes()
    expected = direct.gamma.astype(complex)
    expected[0, 1] = complex(0.0, imag)
    assert system.gamma.dtype == np.complex128
    assert system.gamma.tobytes() == expected.tobytes()
    again = tmp_path / "again.json"
    cli.dump_problem(system, str(again))
    assert again.read_bytes() == problem.read_bytes()


def test_certify_reads_any_problem_layout(tmp_path):
    system = sc.build_maxwell_system(sc.GridSpec(N=3), sigma=0.7)
    compact = tmp_path / "compact.json"
    cli.dump_problem(system, str(compact))
    legacy = _write_problem(tmp_path / "legacy.json", system.alpha, system.beta, system.gamma,
                            system.C, **LEGACY)
    reports = [tmp_path / "r_compact.json", tmp_path / "r_legacy.json"]
    assert main(["certify", str(compact), "-o", str(reports[0])]) == 0
    assert main(["certify", legacy, "-o", str(reports[1])]) == 0
    assert reports[0].read_bytes() == reports[1].read_bytes()


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
    u0_file = tmp_path / "u0.json"
    u0_file.write_text(json.dumps({"a": 1}))
    argv = ["simulate", scalar_problem, "--t-end", "1", "--samples", "11", "--u0", str(u0_file)]
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
    f = tmp_path / "v2.json"
    f.write_text(json.dumps({"schema_version": 2}))
    assert main(["certify", str(f)]) == 1
    assert "schema_version" in capsys.readouterr().err


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


def test_certify_runs_each_step_once(tmp_path, monkeypatch):
    # Rank 1 with n0 = n1 = 2: B_res has 3 rows, the full generator 4.
    problem = _write_problem(
        tmp_path / "p.json", np.eye(2), np.eye(2), np.eye(2), [[1.0, 0.0], [0.0, 0.0]]
    )
    calls = Counter()
    shapes = []
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "stabcert" or n.startswith("stabcert."))]
    for fn in (sc.normalize_system, sc.decompose, sc.restricted_generator,
               sc.spectral_abscissa, sc.simulate):
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
    assert main(["certify", problem, "-o", str(tmp_path / "r.json")]) == 0
    # decompose runs on D only; the admissible start reuses its frames.  One
    # eigendecomposition of B_res gives the abscissa and the trajectory; the
    # full generator is never decomposed.
    assert calls == {
        "normalize_system": 1, "decompose": 1, "restricted_generator": 1, "eig": 1,
    }
    assert shapes == [(3, 3)]


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


def test_certify_loads_no_scipy(scalar_problem, tmp_path):
    # scipy serves only the Pade fallback of simulate, which certify on a
    # diagonalizable generator never takes; importing scipy.linalg would
    # cost more than the certify itself.
    code = (
        "import sys, stabcert\n"
        "from stabcert import cli\n"
        f"assert cli.main(['certify', {scalar_problem!r}, '-o', {str(tmp_path / 'r.json')!r}]) == 0\n"
        "print(sorted(n for n in sys.modules if n.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(sc.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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
    cover_threads = []

    def cover(*args):
        cover_threads.append(threading.current_thread())
        return sc.verify.resolvent_cover(*args)

    monkeypatch.setattr(sc.certificate, "resolvent_cover", cover)
    assert main(["certify", grid_problem, "-o", str(tmp_path / "r.json")]) == 0
    assert threads == {threading.current_thread()}
    assert len(cover_threads) == 1
    assert (cover_threads[0] is not threading.current_thread()) == (_openblas_threads() is not None)
