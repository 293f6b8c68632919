import json
import os
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

import lssurv as ls
from lssurv.cli import read_dataset, read_source_csv, run_cli, write_dataset
from lssurv.errors import ParseError, SchemaError, ValidationError
from lssurv.schemas import RESULT_SCHEMAS

from conftest import gen_censored_population, make_dataset


def run(args):
    """Invoke the CLI in a subprocess; returns (exit_code, stdout, stderr)."""
    proc = subprocess.run(
        [sys.executable, "-m", "lssurv.cli", *args], capture_output=True, text=True
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture(scope="module")
def csv_pair(tmp_path_factory):
    d = tmp_path_factory.mktemp("data")
    ds = make_dataset(seed=1, n1=80, n2=60)
    src, tgt = str(d / "s.csv"), str(d / "t.csv")
    write_dataset(ds, src, tgt)
    return ds, src, tgt


def test_roundtrip_is_value_identical(csv_pair):
    ds, src, tgt = csv_pair
    back = read_dataset(src, tgt)
    np.testing.assert_array_equal(back.x, ds.x)
    np.testing.assert_array_equal(back.delta, ds.delta)
    np.testing.assert_array_equal(back.z_source, ds.z_source)
    np.testing.assert_array_equal(back.z_target, ds.z_target)


def test_read_dataset_counts(tmp_path):
    src = tmp_path / "s.csv"
    tgt = tmp_path / "t.csv"
    src.write_text("x,delta,z1\n1.0,1,0.5\n2.0,0,0.1\n3.0,1,0.2\n")
    tgt.write_text("z1\n0.3\n0.9\n")
    ds = read_dataset(str(src), str(tgt))
    assert ds.n1 == 3 and ds.n2 == 2


def test_bad_delta_cites_line(tmp_path):
    # header is physical line 1, so the offending row sits on line 4
    src = tmp_path / "s.csv"
    src.write_text("x,delta,z1\n1.0,1,0.5\n2.0,0,0.1\n3.0,2,0.2\n")
    with pytest.raises(ValidationError, match=":4"):
        read_source_csv(str(src))


def test_header_mismatch_and_parse_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("time,delta,z1\n1.0,1,0.5\n")
    with pytest.raises(SchemaError):
        read_source_csv(str(bad))
    bad.write_text("x,delta,z1\n1.0,1,abc\n")
    with pytest.raises(ParseError, match=":2"):
        read_source_csv(str(bad))


def test_fit_json_matches_schema(csv_pair):
    _, src, tgt = csv_pair
    code, out, err = run(["fit", "--model", "ph-weibull", "--source", src,
                          "--target", tgt, "--json"])
    assert code == 0, err
    doc = json.loads(out)
    jsonschema.validate(doc, RESULT_SCHEMAS["fit"])
    assert doc["convergence"]["converged"] is True


def test_unknown_model_is_usage_error(csv_pair):
    _, src, tgt = csv_pair
    code, out, err = run(["fit", "--model", "nope", "--source", src, "--target", tgt])
    assert code == 2
    assert "unknown model" in err


def test_missing_file_is_domain_error():
    code, out, err = run(["fit", "--model", "ph-weibull", "--source", "no.csv",
                          "--target", "no2.csv"])
    assert code == 1


def test_simulate_fit_predict_select_pipeline(tmp_path):
    prefix = str(tmp_path / "sim")
    code, out, err = run([
        "simulate", "--model", "ph-weibull", "--theta", "1,1,1,1.5",
        "--n1", "260", "--n2", "240", "--seed", "12", "--out-prefix", prefix, "--json",
    ])
    assert code == 0, err
    doc = json.loads(out)
    jsonschema.validate(doc, RESULT_SCHEMAS["simulate"])
    src, tgt = doc["source_path"], doc["target_path"]

    # like every subcommand, --out takes the report and stdout stays silent
    sim_path = tmp_path / "sim.json"
    code, out, err = run([
        "simulate", "--model", "ph-weibull", "--theta", "1,1,1,1.5", "--n1", "260",
        "--n2", "240", "--seed", "12", "--out-prefix", prefix, "--json", "--out", str(sim_path),
    ])
    assert code == 0, err
    assert out == ""
    sim_doc = json.loads(sim_path.read_text())
    jsonschema.validate(sim_doc, RESULT_SCHEMAS["simulate"])
    assert sim_doc == doc

    fit_path = str(tmp_path / "fit.json")
    code, out, err = run(["fit", "--model", "ph-weibull", "--source", src,
                          "--target", tgt, "--json", "--out", fit_path])
    assert code == 0, err
    fit_doc = json.load(open(fit_path))
    jsonschema.validate(fit_doc, RESULT_SCHEMAS["fit"])

    code, out, err = run(["predict", "--fit", fit_path, "--z", "0,1", "--g", "mean", "--json"])
    assert code == 0, err
    pred = json.loads(out)
    jsonschema.validate(pred, RESULT_SCHEMAS["predict"])
    assert pred["se"] > 0

    code, out, err = run(["predict", "--fit", fit_path, "--z", "0,1",
                          "--g", "survival-at:0.7", "--json"])
    assert code == 0, err
    surv_doc = json.loads(out)
    assert 0 < surv_doc["zeta"] < 1

    code, out, err = run(["predict", "--fit", fit_path, "--z", "0,1",
                          "--g", "restricted-mean:0.7", "--json"])
    assert code == 0, err
    assert 0 < json.loads(out)["zeta"] < 0.7

    code, out, err = run(["fit", "--model", "ph-weibull", "--source", src,
                          "--target", tgt, "--init", "1,1,1,1.5", "--json"])
    assert code == 0, err
    assert json.loads(out)["convergence"]["converged"] is True

    code, out, err = run(["select", "--source", src, "--target", tgt,
                          "--models", "ph-weibull,aft-lognormal,aft-exponential",
                          "--split", "0.3", "--seed", "4", "--json"])
    assert code == 0, err
    sel = json.loads(out)
    jsonschema.validate(sel, RESULT_SCHEMAS["select"])
    assert sel["chosen"] in ("ph-weibull", "aft-lognormal", "aft-exponential")


def test_shift_test_cli_and_reproducibility(tmp_path):
    rng = np.random.default_rng(3)
    for name, rate in (("p.csv", 1.0), ("q.csv", 0.6)):
        x, d, z = gen_censored_population(rng, 220, t_rate=rate)
        with open(tmp_path / name, "w") as fh:
            fh.write("x,delta,z1\n")
            for i in range(len(x)):
                fh.write(f"{float(x[i])!r},{int(d[i])},{float(z[i, 0])!r}\n")
    args = ["shift-test", "--pop-p", str(tmp_path / "p.csv"), "--pop-q",
            str(tmp_path / "q.csv"), "--boot-k", "60", "--seed", "9", "--json"]
    code, out1, err = run(args)
    assert code == 0, err
    doc = json.loads(out1)
    jsonschema.validate(doc, RESULT_SCHEMAS["shift-test"])
    code, out2, _ = run(args)
    assert out1 == out2


def test_mc_cli_csv_and_seed_reproducibility(tmp_path):
    out_csv = str(tmp_path / "mc.csv")
    args = ["mc", "--model", "ph-weibull", "--theta", "1,1,1,1.5", "--n1", "120",
            "--n2", "120", "--reps", "4", "--seed", "43", "--threads", "1",
            "--out", out_csv]
    code, _, err = run(args)
    assert code == 0, err
    first = open(out_csv).read()
    assert first.splitlines()[0] == "param,MSE,Bias,SE,SE_hat,CP"
    assert len(first.splitlines()) == 5
    code, _, _ = run(args)
    assert open(out_csv).read() == first

    code, out, err = run(["mc", "--model", "ph-weibull", "--theta", "1,1,1,1.5",
                          "--n1", "120", "--n2", "120", "--reps", "4", "--seed", "43",
                          "--threads", "2", "--json"])
    assert code == 0, err
    doc = json.loads(out)
    jsonschema.validate(doc, RESULT_SCHEMAS["mc"])
    # parallel run reproduces the serial aggregates
    np.testing.assert_allclose(
        doc["mse"], [float(v.split(",")[1]) for v in first.splitlines()[1:]], atol=1e-6
    )


def test_mc_cli_rejects_zero_threads(capsys):
    code = run_cli(["mc", "--model", "ph-weibull", "--theta", "1,1,1,1.5", "--n1", "60",
                    "--n2", "60", "--reps", "3", "--threads", "0"])
    assert code == 1
    assert "n_jobs must be an integer >= 1" in capsys.readouterr().err


def test_run_cli_in_process(csv_pair, capsys):
    _, src, tgt = csv_pair
    code = run_cli(["fit", "--model", "ph-weibull", "--source", src, "--target", tgt])
    assert code == 0
    table = capsys.readouterr().out
    assert "param" in table and "lambda" in table


def _population_csv(path, rng):
    x, d, z = gen_censored_population(rng, 60)
    with open(path, "w") as fh:
        fh.write("x,delta,z1\n")
        for i in range(len(x)):
            fh.write(f"{float(x[i])!r},{int(d[i])},{float(z[i, 0])!r}\n")
    return str(path)


def test_bad_alpha_is_a_domain_error(tmp_path, capsys):
    rng = np.random.default_rng(4)
    pops = [_population_csv(tmp_path / name, rng) for name in ("p.csv", "q.csv")]
    code = run_cli(["shift-test", "--pop-p", pops[0], "--pop-q", pops[1], "--alpha", "1.5"])
    assert code == 1
    assert capsys.readouterr().err == "error: ValidationError: alpha must lie in (0, 1), got 1.5\n"


def test_malformed_fit_document_is_a_domain_error(tmp_path, capsys):
    doc = {"model": "ph-weibull", "params": ["beta1", "beta2", "lambda", "gamma"],
           "theta": [0.0, 0.0, 1.0, 1.5], "se": None, "ci": None, "loglik": 0.0,
           "sigma": list(np.eye(4).ravel()), "d_theta": 4, "d_z": 2, "n0": 100}
    conv = {"converged": True, "iterations": 1, "grad_norm": 0.0, "warnings": []}
    no_n0 = {k: v for k, v in doc.items() if k != "n0"}
    for bad, message in ((doc, "fit document lacks convergence"),
                         (dict(doc, sigma=[1.0], convergence=conv),
                          "fit document's sigma holds 1 entries, not 4 x 4"),
                         (dict(doc, theta=["a", 0.0, 1.0, 1.5], convergence=conv),
                          "fit document's theta is not an array of numbers"),
                         (dict(doc, sigma=[float("nan")] * 16, convergence=conv),
                          "fit document's sigma holds a non-finite number"),
                         (dict(no_n0, convergence=conv), "fit document lacks n0"),
                         (dict(doc, n0=0, convergence=conv),
                          "fit document's n0 is 0, not a positive integer"),
                         (dict(doc, n0=None, convergence=conv),
                          "fit document's n0 is None, not a positive integer")):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code = run_cli(["predict", "--fit", str(path), "--z", "0,1", "--g", "mean"])
        assert code == 1
        assert capsys.readouterr().err == f"error: SchemaError: {message}\n"


_SIMULATE = ["simulate", "--model", "ph-weibull", "--theta", "1,1,1,1.5", "--n1", "60",
             "--n2", "60", "--seed", "7", "--out-prefix", "{out}/sim"]
_MC = ["mc", "--model", "ph-weibull", "--theta", "1,1,1,1.5", "--n1", "60", "--n2", "60",
       "--seed", "7", "--threads", "1"]
_FIT = ["fit", "--model", "ph-weibull", "--source", "{src}", "--target", "{tgt}"]
_SELECT = ["select", "--source", "{src}", "--target", "{tgt}", "--seed", "4"]
_PREDICT = ["predict", "--fit", "{fit}", "--z", "0,1"]


@pytest.mark.parametrize("argv", [
    _SIMULATE + ["--qz", "n"],
    _SIMULATE + ["--qz", "n:0,e:0"],
    _SIMULATE + ["--qz", "n:0,e:-1"],
    _SIMULATE + ["--qz", "n:0,b:1.5"],
    _SIMULATE + ["--qz", "n:0,b:0"],
    _SIMULATE + ["--qz", "n:0,n:1:0"],
    _SIMULATE + ["--pt-rate", "0"],
    _SIMULATE + ["--pt-rate", "-1"],
    _SIMULATE + ["--pc-rate", "0"],
    _SIMULATE + ["--n1", "-3"],
    _SIMULATE + ["--n2", "0"],
    _MC + ["--reps", "0"],
    _MC + ["--reps", "1"],
    _FIT + ["--grad-tol", "-1"],
    _FIT + ["--grad-tol", "nan"],
    _FIT + ["--max-iter", "-5"],
    _SELECT + ["--split", "0"],
    _SELECT + ["--split", "nan"],
    _SELECT + ["--split", "0.001"],
    _SELECT + ["--split", "0.03"],
    _SELECT + ["--models", "ph-weibull,ph-weibull"],
    _PREDICT + ["--g", "survival-at:-1"],
    _PREDICT + ["--g", "restricted-mean:nan"],
], ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
def test_bad_option_values_fail_before_any_work(argv, csv_pair, tmp_path, capsys):
    _, src, tgt = csv_pair
    fit_doc = {"model": "ph-weibull", "params": ["beta1", "beta2", "lambda", "gamma"],
               "theta": [0.5, 0.5, 1.0, 1.5], "se": None, "ci": None, "loglik": -1.0,
               "sigma": list(np.eye(4).ravel()), "d_theta": 4, "d_z": 2, "n0": 80,
               "convergence": {"converged": True, "iterations": 9, "grad_norm": 1e-8,
                               "warnings": []}}
    fit_path = tmp_path / "fit.json"
    fit_path.write_text(json.dumps(fit_doc))
    out = tmp_path / "out"
    out.mkdir()
    argv = [a.format(out=out, src=src, tgt=tgt, fit=fit_path) for a in argv]
    code = run_cli(argv + ["--json"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ValidationError: ")
    assert captured.err.count("\n") == 1
    assert list(out.iterdir()) == []
