"""Self-tests of the benchmark (not part of the repository's test suite).

    python3 -m pytest -q perfbench/test_perfbench.py

The smoke runs use tiny sizes, so the whole file takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import spans  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SPEC = json.loads((HERE / "spec.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _span(name, a, b, parent=None):
    return spans.Span(name, a, b, parent=parent)


def test_self_time_of_nested_and_overlapping_children():
    sp = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("b", 3.0, 6.0, parent=0),        # overlaps a
        _span("a.child", 1.5, 2.0, parent=1),  # nested one level down
        _span("c", 8.0, 12.0, parent=0),       # runs past its parent's end
    ]
    got = spans.self_times(sp)
    assert got == pytest.approx([10.0 - (5.0 + 2.0), 2.5, 3.0, 0.5, 4.0])


def test_union_length():
    assert spans._union_length([], 0, 1) == 0
    assert spans._union_length([(0, 1), (2, 3)], 0, 3) == 2
    assert spans._union_length([(0, 5), (1, 2), (4, 7)], 0, 6) == 6
    assert spans._union_length([(-3, -1)], 0, 6) == 0


def test_same_name_nesting_counts_wall_once():
    sp = [_span("f", 0.0, 4.0), _span("f", 1.0, 2.0, parent=0)]
    st = spans.SpanStats(sp)
    assert st.calls("f") == 2
    assert st.wall("f") == 4.0
    assert st.self_s("f") == pytest.approx(4.0)


def test_install_patches_every_binding_and_reports_absent_names(monkeypatch):
    import lssurv.likelihood
    import lssurv.nonparam
    import lssurv.shift_test
    import lssurv.variance

    orig = lssurv.nonparam.kaplan_meier
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + [
        ("lssurv.estimator", "no_such_function", "estimator.gone"),
        ("lssurv.likelihood", "NoSuchClass.method", "likelihood.gone"),
    ])
    tracer = spans.Tracer().install()
    try:
        for mod in (lssurv.nonparam, lssurv.likelihood, lssurv.variance, lssurv.shift_test):
            assert mod.kaplan_meier is not orig
            assert mod.kaplan_meier.__wrapped__ is orig
        assert tracer.absent == ["lssurv.estimator.no_such_function",
                                 "lssurv.likelihood.NoSuchClass.method"]
    finally:
        tracer.uninstall()
    for mod in (lssurv.nonparam, lssurv.likelihood, lssurv.variance, lssurv.shift_test):
        assert mod.kaplan_meier is orig


STEADY = [10, 10.1, 9.9, 10, 10.05, 9.95, 10, 10.1, 9.9, 10]
LOWER = [8, 8.1, 7.9, 8, 8.05, 7.95, 8, 8.1, 7.9, 8]


@pytest.mark.parametrize("parent,change,better,fails,expected", [
    (STEADY, LOWER, "lower", (0, 0), "improved"),
    (STEADY, LOWER, "lower", (1, 1), "improved"),
    (STEADY, LOWER, "lower", (0, 1), "unresolved"),   # more failed operations
    (STEADY[:2], LOWER[:2], "lower", (0, 0), "unresolved"),  # fewer than 10 pairs
    (STEADY, [12, 12.1, 11.9, 12, 12.05, 11.95, 12, 12.1, 11.9, 12], "lower", (0, 0), "worse"),
    (STEADY, [10.05, 10, 9.95, 10.1, 10, 9.9, 10, 10.05, 9.95, 10], "lower", (0, 0), "unchanged"),
    ([5, 15, 5, 15, 5, 15, 5, 15, 5, 15],
     [6, 14, 6, 14, 6, 14, 6, 14, 6, 14], "lower", (0, 0), "unresolved"),
    ([1.0, 1.01, 0.99, 1.0, 1.0, 1.02, 0.98, 1.0, 1.0, 1.0],
     [0.5, 0.51, 0.49, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5], "higher", (0, 0), "worse"),
])
def test_verdict(parent, change, better, fails, expected):
    assert compare.verdict(parent, change, better, 0.1, *fails)[0] == expected


def test_timed_spans_run_without_allocation_tracing():
    assert spans.Tracer()._hooks("variance.asymptotic_variance") == (None, None)
    before, after = spans.Tracer(memory=True)._hooks(
        "variance.asymptotic_variance")
    assert before is not None and after is not None
    assert [t[2] for t in spans.MEMORY_TARGETS] == ["variance.asymptotic_variance"]


def test_compare_refuses_different_environments():
    def run(nproc):
        return {"detail": {"env": {"nproc": nproc, "seed": 1, "commit": None}}}
    data = {"runs": {"parent": {"w": [run(2)]}, "change": {"w": [run(4)]}}}
    with pytest.raises(SystemExit, match="environments differ"):
        compare.check_environments(data)


def _run(*args, cwd=ROOT):
    out = subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=cwd,
                         capture_output=True, text=True, timeout=170)
    return out


@pytest.fixture(scope="module")
def smoke_runs():
    """Two traced and one untraced smoke run per workload."""
    res = {}
    for w in WORKLOADS:
        for trace, rep in (("0", 0), ("1", 0), ("1", 1)):
            out = _run("--workload", w, "--seed", "5", "--seconds", "0.5", "--trace", trace,
                       "--smoke")
            assert out.returncode == 0, out.stderr
            lines = out.stdout.strip().splitlines()
            res[w, trace, rep] = (json.loads(lines[-2]), json.loads(lines[-1]))
    return res


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_every_metric_with_its_unit(smoke_runs, workload):
    for trace, declared in (("0", BENCH["end_to_end"]), ("1", BENCH["per_layer"])):
        detail, result = smoke_runs[workload, trace, 0]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {m["name"]: m["unit"] for m in declared} == \
            {k: v["unit"] for k, v in result["metrics"].items()}
        assert all(isinstance(v["value"], float) for v in result["metrics"].values())
        assert set(detail["env"]) >= {"commit", "seed", "nproc", "python", "numpy", "scipy",
                                      "blas", "blas_threads", "mc_n_jobs"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_covers_every_listed_span(smoke_runs, workload):
    detail, _ = smoke_runs[workload, "1", 0]
    assert detail["absent"] == []
    names = [json.loads(line)["name"] for line in (ROOT / detail["spans"]).read_text().splitlines()]
    missing = [s for s in SPEC["spans_by_workload"][workload] if s not in names]
    assert missing == []
    assert "variance.asymptotic_variance" not in SPEC["spans_by_workload"][workload] or \
        smoke_runs[workload, "1", 0][1]["metrics"]["variance.traced_peak_mb"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(smoke_runs, workload):
    counted = [m["name"] for m in BENCH["per_layer"] if m["unit"] in ("count", "B")]
    first = smoke_runs[workload, "1", 0][1]["metrics"]
    second = smoke_runs[workload, "1", 1][1]["metrics"]
    assert {k: first[k]["value"] for k in counted} == {k: second[k]["value"] for k in counted}


def test_without_a_workload_every_workload_runs():
    out = _run("--seed", "5", "--seconds", "0.2", "--smoke")
    assert out.returncode == 0, out.stderr
    results = json.loads(out.stdout.strip().splitlines()[-1])
    assert list(results) == WORKLOADS
    assert all(r["correct"] for r in results.values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
