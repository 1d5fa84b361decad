"""Tests of the benchmark itself: oracle, generator, tracer and smoke runs.

    python3 -m pytest bench/test_bench.py -q
"""

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from bench import oracle  # noqa: E402
from bench import workloads as wl  # noqa: E402
from bench.run import per_layer_units  # noqa: E402
from bench.tracer import self_times  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def cli(args, cwd):
    return subprocess.run([sys.executable, "-m", "coarsecert.cli", *args], cwd=cwd, env=ENV,
                          check=True, capture_output=True, text=True)


def read(path):
    return json.loads(Path(path).read_text())


@pytest.fixture(scope="module")
def certificate(tmp_path_factory):
    """A real 400-point certificate run: weights, pou, certify report, verify report."""
    d = tmp_path_factory.mktemp("cert")
    w = wl.WORKLOADS["dense-p2000"]
    inputs = wl.write_inputs(w, 1, d, n=400)
    cli(wl.decompose_args(), d)
    cli(wl.certify_args(), d)
    report = read(d / "cert.report.json")
    cli(wl.verify_args(w, report["bound"]), d)
    return inputs.weights, read(d / "cert.pou.json"), report, read(d / wl.VERIFY_FILE)


def failed_checks(weights, pou, report, verify):
    checks = oracle.Checks()
    oracle.check_certificate(checks, weights, float(wl.EPSILON), pou, report, verify)
    return [name for name, _, _ in checks.failed]


def test_oracle_accepts_real_certificate(certificate):
    assert failed_checks(*certificate) == []


def test_oracle_rejects_one_corrupted_weight(certificate):
    weights, pou, report, verify = certificate
    bad = copy.deepcopy(pou)
    bad["entries"]["7"][0][1] *= 0.5
    assert "weights positive and sum to 1" in failed_checks(weights, bad, report, verify)


def test_oracle_rejects_a_missing_point(certificate):
    weights, pou, report, verify = certificate
    bad = copy.deepcopy(pou)
    del bad["entries"]["7"]
    assert "pou covers every point" in failed_checks(weights, bad, report, verify)


def test_oracle_rejects_a_bound_below_the_star_diameter(certificate):
    weights, pou, report, verify = certificate
    bad = copy.deepcopy(report)
    bad["bound"] = report["cobounded"]["tight_bound"] - 1.0
    assert failed_checks(weights, pou, bad, verify) == ["star diameters within the reported bound"]


def test_oracle_rejects_a_wrong_worst_slack(certificate):
    weights, pou, report, verify = certificate
    bad = copy.deepcopy(report)
    bad["lipschitz"]["worst_slack"] += 1e-6
    assert failed_checks(weights, pou, bad, verify) == ["certify worst_slack matches"]


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_generator_is_reproducible(tmp_path, name, seed):
    w = wl.WORKLOADS[name]
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    wl.write_inputs(w, seed, a, n=300)
    wl.write_inputs(w, seed, b, n=300)
    files = sorted(p.name for p in a.iterdir())
    assert files == sorted(p.name for p in b.iterdir())
    for f in files:
        assert (a / f).read_bytes() == (b / f).read_bytes()


def test_seed_zero_is_the_baseline_and_other_seeds_vary():
    assert wl.path_weights(2000, 0) == [1.0] * 1999
    assert wl.block_lengths(1500, 0) == [3] * 500
    assert set(wl.path_weights(2000, 4)) == {1.0, 2.0}
    assert wl.path_weights(2000, 4) != wl.path_weights(2000, 5)
    blocks = wl.block_lengths(1500, 4)
    assert sum(blocks) == 1500 and set(blocks[:-1]) <= {2, 3, 4}


def test_seed_zero_space_matches_coarsecert_generate(tmp_path):
    cli(["generate", "--kind", "path", "--n", "50", "--out", "p.json"], tmp_path)
    wl.write_inputs(wl.WORKLOADS["dense-p2000"], 0, tmp_path, n=50)
    assert (tmp_path / "p.json").read_bytes() == (tmp_path / wl.SPACE_FILE).read_bytes()


def test_self_time_subtracts_children():
    spans = [{"name": "cli.main", "start": 0.0, "end": 10.0, "parent": -1},
             {"name": "metric.load", "start": 1.0, "end": 5.0, "parent": 0},
             {"name": "metric.closure", "start": 2.0, "end": 4.0, "parent": 1},
             {"name": "metric.load", "start": 6.0, "end": 7.0, "parent": 0}]
    assert self_times(spans) == {"cli.main": 5.0, "metric.load": 3.0, "metric.closure": 2.0}


def bench_run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout


def smoke_sizes():
    from coarsecert.metric import DENSE_LIMIT
    return {"dense-p2000": 400, "tablefree-p6000": DENSE_LIMIT + 104, "verify-wide": 150}


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_scaled_down_run_has_no_failed_ops(name):
    rc, out = bench_run("--workload", name, "--seed", "3", "--seconds", "1", "--trace", "0",
                        "--n", str(smoke_sizes()[name]))
    result = json.loads(out.splitlines()[-1])
    assert rc == 0 and result["failed"] == 0 and result["correct"], out
    assert set(result["metrics"]) == {"pipeline_s", "peak_rss_mb", "setup_s"}


def test_scaled_down_traced_run_reports_every_layer_metric():
    rc, out = bench_run("--workload", "dense-p2000", "--seed", "2", "--seconds", "1",
                        "--trace", "1", "--n", "400")
    result = json.loads(out.splitlines()[-1])
    assert rc == 0 and result["failed"] == 0, out
    assert set(result["metrics"]) == set(per_layer_units())
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["covers.tree_validate_calls"] == 2
    assert m["extend.pieces"] == m["extend.branch1"] + m["extend.branch2"] > 0
    layers = sum(m[k] for k in m if k.endswith(".self_s"))
    assert abs(layers + m["trace.untraced_s"] - m["trace.pipeline_s"]) < 1e-6


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    rc, out = bench_run("--workload", "verify-wide", "--seed", "0", "--seconds", "1",
                        "--trace", "0", cwd=tmp_path)
    assert rc != 0
    assert not out.strip().endswith("}")
