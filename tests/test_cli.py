import importlib.util
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import stabcert as sc
from stabcert import cli
from stabcert.cli import main, matrix_to_json, load_problem


def _write_problem(path, alpha, beta, gamma, C):
    payload = {
        "schema_version": 1,
        "alpha": matrix_to_json(np.asarray(alpha, dtype=complex)),
        "beta": matrix_to_json(np.asarray(beta, dtype=complex)),
        "gamma": matrix_to_json(np.asarray(gamma, dtype=complex)),
        "C": matrix_to_json(np.asarray(C, dtype=complex)),
    }
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture()
def scalar_problem(tmp_path):
    return _write_problem(tmp_path / "scalar.json", [[1.0]], [[1.0]], [[1.0]], [[1.0]])


def test_maxwell_gen_then_certify(tmp_path):
    problem = tmp_path / "m.json"
    report = tmp_path / "r.json"
    assert main(["maxwell-gen", "--n", "3", "--eps", "1", "--mu", "1", "--sigma", "1",
                 "-o", str(problem)]) == 0
    code = main(["certify", str(problem), "-o", str(report), "--samples", "401"])
    assert code == 0
    data = json.loads(report.read_text())
    assert data["certificate"]["delta_cert"] > 0
    assert all(data["verdicts"].values())
    assert data["formulas"]["d"].startswith("0.5*min")


def test_problem_round_trip(tmp_path):
    problem = tmp_path / "m.json"
    assert main(["maxwell-gen", "--n", "2", "-o", str(problem)]) == 0
    system = load_problem(str(problem))
    direct = sc.build_maxwell_system(sc.GridSpec(N=2))
    assert np.array_equal(system.alpha, direct.alpha)
    assert np.array_equal(system.beta, direct.beta)
    assert np.array_equal(system.gamma, direct.gamma)
    assert np.array_equal(system.C, direct.C)


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
        ["certify", "--lambda-max", "0"],
        ["certify", "--lambda-max", "-5"],
        ["sweep", "--abscissa", "nan", "--lambda-max", "10", "--points", "11"],
    ],
)
def test_invalid_sweep_range_is_refused(scalar_problem, capsys, argv):
    # lambda_max = 0 sweeps z = 0 401 times and reports it bounded, a
    # negative one reverses the grid, and a nan abscissa breaks the SVD.
    assert main([argv[0], scalar_problem, *argv[1:]]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ParameterOutOfRange"


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
    assert main(["certify", problem, "-o", str(r1), "--samples", "301"]) == 0
    assert main(["certify", problem, "-o", str(r2), "--samples", "301"]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_certify_runs_each_step_once(tmp_path, monkeypatch):
    problem = _write_problem(
        tmp_path / "p.json", np.eye(2), np.eye(1), np.eye(2), [[1.0, 0.0]]
    )
    calls = Counter()
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "stabcert" or n.startswith("stabcert."))]
    for fn in (sc.normalize_system, sc.decompose, sc.restricted_generator, sc.spectral_abscissa):
        def counted(*args, _fn=fn, **kwargs):
            calls[_fn.__name__] += 1
            return _fn(*args, **kwargs)

        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is fn:
                    monkeypatch.setattr(m, attr, counted)
    assert main(["certify", problem, "-o", str(tmp_path / "r.json"), "--samples", "301"]) == 0
    # decompose runs on D only; the admissible start reuses its frames.
    assert calls == {
        "normalize_system": 1, "decompose": 1, "restricted_generator": 1, "spectral_abscissa": 1,
    }


def test_certify_refuses_oversized_audit(tmp_path, capsys):
    n = 330  # restricted generator of 660 rows
    eye = np.eye(n)
    problem = _write_problem(tmp_path / "big.json", eye, eye, eye, eye)
    assert main(["certify", problem]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "GridTooLarge"


def test_benchmark_tracer_sees_each_step(scalar_problem, tmp_path, monkeypatch):
    # perfbench/tracing.py wraps functions by module and name; a rename
    # under src/ must fail here rather than in the benchmark's traced run.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main(["certify", scalar_problem, "-o", str(tmp_path / "r.json")]) == 0
    finally:
        tracer.uninstall()
    metrics = tracing.pass_metrics(tracer.take())
    assert metrics["normalize.normalize_system_calls"] == 1
    assert metrics["helmholtz.decompose_calls"] == 1
    assert metrics["certificate.audit_resolvent_evals"] == 41
    assert metrics["verify.sweep_resolvent_evals"] == 802
