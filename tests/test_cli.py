import copy
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coarsecert
from coarsecert import cli, covers, jsonio, metric
from coarsecert.cli import main
from coarsecert.covers import tree_validate
from coarsecert.verify import lipschitz_check
from .genutil import perturb_weight, random_lipschitz_pou


def run(*args):
    return main([str(a) for a in args])


@pytest.fixture
def p100_file(tmp_path):
    out = tmp_path / "p100.json"
    assert run("generate", "--kind", "path", "--n", 100, "--out", out) == 0
    return out


class TestGenerate:
    def test_path(self, p100_file):
        sp = jsonio.load_space(p100_file)
        assert sp.n == 100
        assert sp.d(0, 99) == 99.0
        assert sp.meta["grid_shape"] == [100]

    def test_grid(self, tmp_path):
        out = tmp_path / "g.json"
        assert run("generate", "--kind", "grid", "--width", 10, "--height", 10,
                   "--out", out) == 0
        sp = jsonio.load_space(out)
        assert sp.n == 100
        assert sp.diameter() == 18.0

    def test_tree_graph_connected(self, tmp_path):
        out = tmp_path / "t.json"
        assert run("generate", "--kind", "tree-graph", "--n", 50, "--seed", 3,
                   "--out", out) == 0
        assert jsonio.load_space(out).n == 50

    def test_random_geometric_connected(self, tmp_path):
        out = tmp_path / "rgg.json"
        assert run("generate", "--kind", "random-geometric", "--n", 200,
                   "--seed", 7, "--radius", 0.15, "--out", out) == 0

    def test_random_geometric_disconnected(self, tmp_path):
        out = tmp_path / "rgg.json"
        assert run("generate", "--kind", "random-geometric", "--n", 200,
                   "--seed", 7, "--radius", 0.10, "--out", out) == 2
        assert not out.exists()

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            run("generate", "--kind", "random-geometric", "--n", 80,
                "--seed", 11, "--radius", 0.2, "--out", out)
        assert a.read_bytes() == b.read_bytes()


class TestDecompose:
    def test_bricks(self, p100_file, tmp_path):
        out = tmp_path / "tree.json"
        assert run("decompose", "--space", p100_file, "--strategy", "bricks",
                   "--R", 10, "--block-scale", 11, "--out", out) == 0
        tree = jsonio.load_tree(out)
        sp = jsonio.load_space(p100_file)
        assert tree_validate(sp, tree).passed
        assert tree.m == 2

    def test_greedy(self, p100_file, tmp_path):
        out = tmp_path / "tree.json"
        assert run("decompose", "--space", p100_file, "--strategy", "greedy",
                   "--R", 2, "--diam", 4, "--out", out) == 0
        tree = jsonio.load_tree(out)
        assert tree_validate(jsonio.load_space(p100_file), tree).passed
        assert len(tree.root.families) == 2

    def test_greedy_tree_certifies(self, p100_file, tmp_path):
        tree = tmp_path / "tree.json"
        assert run("decompose", "--space", p100_file, "--strategy", "greedy",
                   "--R", 159, "--diam", 160, "--out", tree) == 0
        assert run("certify", "--space", p100_file, "--tree", tree, "--epsilon", 0.2,
                   "--modulus", "linear:4", "--out", tmp_path / "cert") == 0
        rep = json.loads((tmp_path / "cert.report.json").read_text())
        assert rep["pass"] is True

    def test_bricks_tree_validated_once(self, p100_file, tmp_path, monkeypatch):
        calls = []
        inner = covers.r_disjoint_check

        def counted(*args, **kwargs):
            calls.append(args)
            return inner(*args, **kwargs)

        monkeypatch.setattr(covers, "r_disjoint_check", counted)
        assert run("decompose", "--space", p100_file, "--strategy", "bricks",
                   "--R", 10, "--block-scale", 11, "--out", tmp_path / "tree.json") == 0
        assert len(calls) == 2  # one check per family of the root

    def test_invalid_tree_is_not_written(self, p100_file, tmp_path, monkeypatch, capsys):
        real = cli.brick_tree

        def too_close(space, R_schedule, block_scale):
            tree = real(space, R_schedule, block_scale)
            tree.radii = (50.0,)  # same-family blocks sit 12 apart
            return tree

        monkeypatch.setattr(cli, "brick_tree", too_close)
        out = tmp_path / "tree.json"
        assert run("decompose", "--space", p100_file, "--strategy", "bricks",
                   "--R", 10, "--block-scale", 11, "--out", out) == 2
        err = capsys.readouterr().err
        assert "ConstructionFailedError" in err and "clause 2" in err
        assert not out.exists()

    def test_bricks_non_grid(self, tmp_path):
        space = tmp_path / "m.json"
        jsonio.save_json(space, jsonio.space_to_json(
            "matrix", 3, [[0, 1, 2], [1, 0, 1], [2, 1, 0]]))
        assert run("decompose", "--space", space, "--strategy", "bricks",
                   "--R", 1, "--block-scale", 2, "--out", tmp_path / "x.json") == 2


class TestCertify:
    @pytest.fixture
    def setup(self, tmp_path):
        space = tmp_path / "p.json"
        tree = tmp_path / "tree.json"
        run("generate", "--kind", "path", "--n", 400, "--out", space)
        run("decompose", "--space", space, "--strategy", "bricks",
            "--R", 80, "--block-scale", 81, "--out", tree)
        return space, tree

    def test_pass_exit_zero(self, setup, tmp_path):
        space, tree = setup
        out = tmp_path / "cert"
        code = run("certify", "--space", space, "--tree", tree, "--epsilon", 0.4,
                   "--modulus", "linear:4", "--schedule", "conservative", "--out", out)
        assert code == 0
        rep = json.loads((tmp_path / "cert.report.json").read_text())
        assert rep["pass"] is True
        assert rep["branch_counts"]["branch1"] > 0
        sched = json.loads((tmp_path / "cert.schedule.json").read_text())
        assert sched["P"] == [2, 1]
        # the pou file re-verifies from scratch
        sp = jsonio.load_space(space)
        pou = jsonio.load_pou(tmp_path / "cert.pou.json", sp)
        assert lipschitz_check(pou, 0.4, 0.4).passed

    def test_schedule_mismatch_exit_two(self, setup, tmp_path):
        space, tree = setup
        code = run("certify", "--space", space, "--tree", tree, "--epsilon", 0.2,
                   "--modulus", "linear:4", "--out", tmp_path / "cert")
        assert code == 2

    def test_trivial_bounded_space(self, tmp_path):
        space = tmp_path / "small.json"
        tree = tmp_path / "tree.json"
        run("generate", "--kind", "path", "--n", 20, "--out", space)
        run("decompose", "--space", space, "--strategy", "bricks",
            "--R", 1, "--block-scale", 25, "--out", tree)
        assert jsonio.load_tree(tree).m == 1
        assert run("certify", "--space", space, "--tree", tree, "--epsilon", 0.5,
                   "--modulus", "paper", "--out", tmp_path / "c") == 0


class TestVerify:
    @pytest.fixture
    def cert(self, tmp_path):
        space = tmp_path / "p.json"
        tree = tmp_path / "tree.json"
        run("generate", "--kind", "path", "--n", 400, "--out", space)
        run("decompose", "--space", space, "--strategy", "bricks",
            "--R", 80, "--block-scale", 81, "--out", tree)
        run("certify", "--space", space, "--tree", tree, "--epsilon", 0.4,
            "--modulus", "linear:4", "--out", tmp_path / "cert")
        return space, tmp_path / "cert.pou.json"

    def test_valid_exit_zero(self, cert, tmp_path):
        space, pou = cert
        out = tmp_path / "rep.json"
        assert run("verify", "--space", space, "--pou", pou,
                   "--epsilon", 0.4, "--mode", "restricted", "--out", out) == 0
        rep = json.loads(out.read_text())
        assert rep["reports"][0]["pass"] is True

    def test_perturbed_exit_one(self, cert, tmp_path):
        space, pou_path = cert
        sp = jsonio.load_space(space)
        pou = jsonio.load_pou(pou_path, sp)
        # push the leftmost block's vertex onto point 399: its star preimage
        # now spans the whole path, past the measured coboundedness it claimed
        far_v = min(v for v in pou.carrier())
        bad = perturb_weight(pou, 399, far_v)
        bad_path = tmp_path / "bad.pou.json"
        jsonio.save_json(bad_path, jsonio.pou_to_json(bad))
        rep = json.loads((tmp_path / "cert.report.json").read_text())
        tight = rep["cobounded"]["tight_bound"]
        code = run("verify", "--space", space, "--pou", bad_path,
                   "--lam", 0.4, "--C", 0.4, "--M", tight,
                   "--out", tmp_path / "rep2.json")
        assert code == 1
        out = json.loads((tmp_path / "rep2.json").read_text())
        assert not all(r["pass"] for r in out["reports"])

    def test_unknown_point_id_exit_two(self, cert, tmp_path):
        space, pou_path = cert
        obj = json.loads(pou_path.read_text())
        obj["entries"]["9999"] = [["0:0", 1.0]]
        bad = tmp_path / "oob.pou.json"
        bad.write_text(json.dumps(obj))
        assert run("verify", "--space", space, "--pou", bad, "--epsilon", 0.4) == 2

    def test_usage_error(self, cert):
        space, pou = cert
        assert run("verify", "--space", space, "--pou", pou) == 2

    def test_partial_pou_exit_one(self, cert, tmp_path, capsys):
        space, pou_path = cert
        obj = json.loads(pou_path.read_text())
        obj["entries"] = {"0": obj["entries"]["0"]}
        partial = tmp_path / "partial.pou.json"
        partial.write_text(json.dumps(obj))
        assert run("verify", "--space", space, "--pou", partial, "--epsilon", 0.4) == 1
        assert "does not cover point 1" in capsys.readouterr().err

    def test_report_supplies_claims(self, cert, tmp_path):
        space, pou = cert
        report = tmp_path / "cert.report.json"
        out = tmp_path / "rep.json"
        assert run("verify", "--space", space, "--pou", pou, "--report", report,
                   "--out", out) == 0
        lip, cob = json.loads(out.read_text())["reports"]
        claimed = json.loads(report.read_text())
        assert lip["check"] == "lipschitz" and lip["pass"] is True
        assert cob["check"] == "cobounded" and cob["bound"] == claimed["bound"]
        # flags that agree with the report are accepted
        assert run("verify", "--space", space, "--pou", pou, "--report", report,
                   "--epsilon", claimed["epsilon"], "--M", repr(claimed["bound"])) == 0

    def test_report_bound_is_checked(self, cert, tmp_path):
        space, pou = cert
        report = tmp_path / "cert.report.json"
        obj = json.loads(report.read_text())
        obj["bound"] = obj["cobounded"]["tight_bound"] / 2
        low = tmp_path / "low.report.json"
        low.write_text(json.dumps(obj))
        out = tmp_path / "rep.json"
        assert run("verify", "--space", space, "--pou", pou, "--report", low,
                   "--out", out) == 1
        lip, cob = json.loads(out.read_text())["reports"]
        assert lip["pass"] is True and cob["pass"] is False

    @pytest.mark.parametrize("flag, value", [("--M", 5.0), ("--epsilon", 0.3),
                                             ("--lam", 0.3), ("--C", 0.5)])
    def test_report_disagreeing_flag_exit_two(self, cert, tmp_path, capsys, flag, value):
        space, pou = cert
        report = tmp_path / "cert.report.json"
        assert run("verify", "--space", space, "--pou", pou, "--report", report,
                   flag, value) == 2
        assert f"{flag} {value!r} disagrees with" in capsys.readouterr().err


    @pytest.mark.parametrize("flags, named", [
        (("--lam", "nan", "--C", "nan"), "lam = nan"),
        (("--epsilon", "nan"), "lam = nan"),
        (("--lam", 0.4, "--C", "1e400"), "C = inf"),
        (("--epsilon", 0.4, "--M", "nan"), "M = nan"),
    ])
    def test_non_finite_claim_exit_two(self, cert, tmp_path, capsys, flags, named):
        # these used to pass, NaN or not, and write NaN into the report
        space, pou = cert
        out = tmp_path / "n.json"
        assert run("verify", "--space", space, "--pou", pou, *flags, "--out", out) == 2
        assert f"InvalidInputError: claimed {named} is not finite" in capsys.readouterr().err
        assert not out.exists()

    def test_lam_and_C_alone_are_checked(self, cert):
        space, pou = cert
        assert run("verify", "--space", space, "--pou", pou,
                   "--lam", 0.01, "--C", 0.01) == 1

    @pytest.mark.parametrize("flags", [("--lam", 0.01, "--C", 0.01), ("--lam", 0.01),
                                       ("--C", 0.01)])
    def test_epsilon_conflicting_with_lam_or_C_exit_two(self, cert, capsys, flags):
        space, pou = cert
        assert run("verify", "--space", space, "--pou", pou, "--epsilon", 0.4, *flags) == 2
        err = capsys.readouterr().err
        assert f"CoarseCertError: {flags[0]} 0.01 disagrees with --epsilon 0.4" in err

    def test_epsilon_agreeing_with_lam_and_C(self, cert):
        space, pou = cert
        assert run("verify", "--space", space, "--pou", pou, "--epsilon", 0.4,
                   "--lam", 0.4, "--C", 0.4) == 0


@pytest.fixture(scope="module")
def clean_artifacts(tmp_path_factory):
    """A small space, tree and certificate pou, written by the CLI."""
    d = tmp_path_factory.mktemp("clean")
    run("generate", "--kind", "path", "--n", 40, "--out", d / "space.json")
    run("decompose", "--space", d / "space.json", "--strategy", "bricks",
        "--R", 10, "--block-scale", 11, "--out", d / "tree.json")
    assert run("certify", "--space", d / "space.json", "--tree", d / "tree.json",
               "--epsilon", 0.8, "--modulus", "linear:2", "--out", d / "cert") == 0
    return d


# case -> (file to break, edit, text the error message must contain)
MALFORMED = {
    "pou vertex key": ("cert.pou.json",
                       lambda obj: obj["entries"].update({"0": [["abc", 1.0]]}),
                       "cert.pou.json"),
    "pou point key": ("cert.pou.json",
                      lambda obj: obj["entries"].update(x=obj["entries"].pop("0")),
                      "cert.pou.json"),
    "pou weight NaN": ("cert.pou.json",
                       lambda obj: obj["entries"].update(
                           {"0": [["0:0", 1.0], ["0:1", float("nan")]]}),
                       "cert.pou.json: non-finite weight nan"),
    "pou point assigned twice": ("cert.pou.json",
                                 lambda obj: obj["entries"].update({"-0": obj["entries"]["0"]}),
                                 "cert.pou.json: pou assigns point 0 twice"),
    "tree without nodes": ("tree.json", lambda obj: obj.pop("nodes"), "tree.json"),
    "tree depth not an integer": ("tree.json", lambda obj: obj.update(m="two"),
                                  "tree.json"),
    "tree radius NaN": ("tree.json", lambda obj: obj.update(radii=[float("nan")]),
                        "tree.json: tree radius nan"),
    "tree level not an integer": ("tree.json",  # int() would make it the root's level 1
                                  lambda obj: next(nd for nd in obj["nodes"]
                                                   if nd["level"] == 1).update(level=1.5),
                                  "tree.json: node level 1.5 is not an integer"),
    "tree member id too large": ("tree.json",
                                 lambda obj: obj["nodes"][-1]["members"].append(99),
                                 "point id 99 outside space of size 40"),
    "tree member id negative": ("tree.json",
                                lambda obj: obj["nodes"][-1]["members"].insert(0, -3),
                                "point id -3 outside space of size 40"),
    "graph space data null": ("space.json", lambda obj: obj.update(data=None),
                              "space.json"),
    "graph edge weight NaN": ("space.json",
                              lambda obj: obj["data"][0].__setitem__(2, float("nan")),
                              "space.json: edge (0,1) has non-finite weight nan"),
    "graph edge without weight": ("space.json", lambda obj: obj["data"][0].pop(),
                                  "space.json: malformed artifact (IndexError"),
    "graph edge endpoint not an integer": ("space.json",
                                           lambda obj: obj["data"][1].__setitem__(0, 1.5),
                                           "space.json: edge endpoint 1.5 is not an integer"),
    "points space without p": ("space.json", lambda obj: obj.update(
        kind="points", data={"coords": [[float(x)] for x in range(obj["n"])]}),
        "space.json"),
    "points space overflowing lp distance": ("space.json", lambda obj: obj.update(
        kind="points", data={"coords": [[float(x)] for x in range(obj["n"] - 1)] + [[1e200]],
                             "p": 2}),
        "space.json: lp distance from point 0 to point 39 overflows for p=2.0"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_artifact_exit_two(case, clean_artifacts, tmp_path):
    for name in ("space.json", "tree.json", "cert.pou.json"):
        shutil.copy(clean_artifacts / name, tmp_path / name)
    target, edit, message = MALFORMED[case]
    obj = json.loads((tmp_path / target).read_text())
    edit(obj)
    (tmp_path / target).write_text(json.dumps(obj))
    if target == "tree.json":
        args = ["certify", "--space", "space.json", "--tree", "tree.json",
                "--epsilon", "0.8", "--modulus", "linear:2", "--out", "again"]
    else:
        args = ["verify", "--space", "space.json", "--pou", "cert.pou.json",
                "--epsilon", "0.8"]
    assert_input_error(tmp_path, args, message)


def assert_input_error(cwd, args, message):
    """The CLI, run as a process in cwd, exits 2 naming the problem, no traceback."""
    env = dict(os.environ, PYTHONPATH=str(Path(coarsecert.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "coarsecert.cli", *args], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert "InvalidInputError" in proc.stderr
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


def test_missing_input_file_exit_two(clean_artifacts):
    assert_input_error(clean_artifacts, ["verify", "--space", "space.json",
                                         "--pou", "nothing.pou.json", "--epsilon", "0.8"],
                       "nothing.pou.json: cannot read")


def test_table_free_cloud_overflow_exit_two(tmp_path):
    # above the dense-table limit; the only overflowing pair, 4198-4199, is
    # one the sampled triangle check does not reach
    coords = [[float(x)] for x in range(4198)] + [[-1e154], [1e154]]
    jsonio.save_json(tmp_path / "space.json",
                     jsonio.space_to_json("points", 4200, {"coords": coords, "p": 2}))
    assert_input_error(tmp_path, ["decompose", "--space", "space.json", "--strategy", "greedy",
                                  "--R", "1", "--diam", "4", "--out", "tree.json"],
                       "space.json: lp distance from point 4198 to point 4199 overflows")


def test_integral_floats_load(clean_artifacts, tmp_path):
    # 2.0 is the integer 2; only values that int() would change are refused
    space = json.loads((clean_artifacts / "space.json").read_text())
    space["data"][1][:2] = [1.0, 2.0]
    tree = json.loads((clean_artifacts / "tree.json").read_text())
    tree["nodes"][-1]["level"] = float(tree["nodes"][-1]["level"])
    (tmp_path / "space.json").write_text(json.dumps(space))
    (tmp_path / "tree.json").write_text(json.dumps(tree))
    assert run("certify", "--space", tmp_path / "space.json", "--tree", tmp_path / "tree.json",
               "--epsilon", 0.8, "--modulus", "linear:2", "--out", tmp_path / "again") == 0
    for sfx in (".report.json", ".schedule.json"):
        assert ((tmp_path / f"again{sfx}").read_bytes()
                == (clean_artifacts / f"cert{sfx}").read_bytes())


# values a fuzzed artifact leaf is set to: wrong types, out-of-range ids,
# non-integers, non-finite floats and containers where scalars belong
FUZZ_VALUES = [None, -1, 10**6, 1.5, "x", [], {}, float("nan"), float("inf"), [[0, [1]]]]


@pytest.fixture(scope="module")
def fuzz_artifacts(tmp_path_factory):
    """A 12-point path, its bricks tree and certificate pou, as parsed JSON."""
    d = tmp_path_factory.mktemp("fuzz")
    run("generate", "--kind", "path", "--n", 12, "--out", d / "space.json")
    run("decompose", "--space", d / "space.json", "--strategy", "bricks",
        "--R", 3, "--block-scale", 4, "--out", d / "tree.json")
    assert run("certify", "--space", d / "space.json", "--tree", d / "tree.json",
               "--epsilon", 1.9, "--modulus", "linear:1.5", "--out", d / "cert") == 0
    return {name: json.loads((d / name).read_text())
            for name in ("space.json", "tree.json", "cert.pou.json")}


def _leaf_paths(obj, path=()):
    """Key/index paths to every scalar in a parsed JSON document."""
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _leaf_paths(obj[key], path + (key,))
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            yield from _leaf_paths(item, path + (i,))
    else:
        yield path


@given(data=st.data())
@settings(derandomize=True, deadline=None, max_examples=300)
def test_fuzzed_artifact_exits_cleanly(fuzz_artifacts, data):
    # one leaf of one artifact replaced; certify reads the space and tree,
    # verify the space and pou; every outcome is an exit code, never an escape
    target = data.draw(st.sampled_from(sorted(fuzz_artifacts)))
    docs = copy.deepcopy(fuzz_artifacts)
    *parents, last = data.draw(st.sampled_from(list(_leaf_paths(docs[target]))))
    node = docs[target]
    for key in parents:
        node = node[key]
    node[last] = data.draw(st.sampled_from(FUZZ_VALUES))
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        for name, doc in docs.items():
            (d / name).write_text(json.dumps(doc))
        if target != "cert.pou.json":
            assert run("certify", "--space", d / "space.json", "--tree", d / "tree.json",
                       "--epsilon", 1.9, "--modulus", "linear:1.5",
                       "--out", d / "again") in (0, 1, 2)
        if target != "tree.json":
            assert run("verify", "--space", d / "space.json", "--pou", d / "cert.pou.json",
                       "--epsilon", 1.9) in (0, 1, 2)


class TestRoundTrips:
    def test_pou_roundtrip_exact(self, p100_file, tmp_path):
        sp = jsonio.load_space(p100_file)
        rng = np.random.default_rng(13)
        f = random_lipschitz_pou(sp, range(100), 0.3, rng, n_vertices=5)
        path = tmp_path / "f.pou.json"
        jsonio.save_json(path, jsonio.pou_to_json(f, space_ref="p100"))
        g = jsonio.load_pou(path, sp)
        assert g.domain.ids == f.domain.ids
        for x in range(100):
            assert g(x).weights() == f(x).weights()  # bit-exact round trip

    def test_space_roundtrip(self, tmp_path):
        obj = jsonio.space_to_json("points", 3,
                                   {"p": "inf", "coords": [[0, 0], [3, 4], [1, 1]]})
        path = tmp_path / "s.json"
        jsonio.save_json(path, obj)
        sp = jsonio.load_space(path)
        assert sp.d(0, 1) == 4.0

    def test_tree_roundtrip(self, p100_file, tmp_path):
        sp = jsonio.load_space(p100_file)
        from coarsecert.covers import brick_tree
        tree = brick_tree(sp, [10.0], 11.0)
        path = tmp_path / "t.json"
        jsonio.save_json(path, jsonio.tree_to_json(tree))
        back = jsonio.load_tree(path)
        assert back.to_json() == tree.to_json()
        assert tree_validate(sp, back).passed

    def test_schema_version_enforced(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"v": 2, "kind": "matrix"}')
        with pytest.raises(Exception):
            jsonio.load_space(bad)

    def test_canonical_files_are_fixed_points(self, p100_file, tmp_path):
        # serialize(load(file)) reproduces the canonical bytes
        sp = jsonio.load_space(p100_file)
        rng = np.random.default_rng(29)
        f = random_lipschitz_pou(sp, range(40), 0.2, rng)
        path = tmp_path / "f.pou.json"
        jsonio.save_json(path, jsonio.pou_to_json(f, space_ref="s"))
        reloaded = jsonio.load_pou(path, sp)
        path2 = tmp_path / "g.pou.json"
        jsonio.save_json(path2, jsonio.pou_to_json(reloaded, space_ref="s"))
        assert path.read_bytes() == path2.read_bytes()


class TestDeterminism:
    def test_certify_byte_identical_across_runs_and_workers(self, tmp_path):
        space = tmp_path / "p.json"
        tree = tmp_path / "tree.json"
        run("generate", "--kind", "path", "--n", 300, "--out", space)
        run("decompose", "--space", space, "--strategy", "bricks",
            "--R", 64, "--block-scale", 65, "--out", tree)
        outs = []
        for tag, workers in (("a", 1), ("b", 4), ("c", 1)):
            assert run("certify", "--space", space, "--tree", tree,
                       "--epsilon", 0.5, "--modulus", "linear:4",
                       "--workers", workers, "--out", tmp_path / tag) == 0
            outs.append(tuple((tmp_path / f"{tag}{sfx}").read_bytes()
                              for sfx in (".pou.json", ".report.json", ".schedule.json")))
        assert outs[0] == outs[1] == outs[2]


# sha256 of each artifact of the pipeline in test_artifacts_independent_of_dense_table
PINNED_DIGESTS = {
    "tree.json": "bfc980e726cbfbc6e243cc2001462def6902f15ed55ef2916bc03b08688c8955",
    "cert.pou.json": "af85447acfa20400cdb9fdfd4f569140255080318c8b902f966dff52f74c5548",
    "cert.report.json": "7a41249731d89552604754b51fa6a9eb7c318e4b12e7f0cc6cb38426b348da44",
    "cert.schedule.json": "8f68421cebd1d37c3837e88e3d4ff5d3e08376e5661f363d8050b613f801fe11",
    "verify.restricted.json": "8942b9107b8def5e0a3e58879f1d886501196ff1df14105382e383bf06ba0235",
    "verify.full.json": "3dfdf1dc92707f40e0109cc9f6fd1f5deb87520376953774c576826ea7b200f1",
}


@pytest.mark.parametrize("table", ["dense", "table-free"])
def test_artifacts_independent_of_dense_table(table, tmp_path, monkeypatch):
    # the dense table and Dijkstra rows are two ways to answer one distance
    # query; every artifact must come out byte-identical either way
    if table == "table-free":
        monkeypatch.setattr(metric, "DENSE_LIMIT", 0)
    monkeypatch.chdir(tmp_path)
    assert run("generate", "--kind", "path", "--n", 400, "--out", "space.json") == 0
    assert jsonio.load_space("space.json").has_table == (table == "dense")
    assert run("decompose", "--space", "space.json", "--strategy", "bricks",
               "--R", 79, "--block-scale", 80, "--out", "tree.json") == 0
    assert run("certify", "--space", "space.json", "--tree", "tree.json",
               "--epsilon", 0.4, "--modulus", "linear:4", "--out", "cert") == 0
    bound = json.loads(Path("cert.report.json").read_text())["bound"]
    for mode in ("restricted", "full"):
        assert run("verify", "--space", "space.json", "--pou", "cert.pou.json",
                   "--epsilon", 0.4, "--M", repr(bound), "--mode", mode,
                   "--out", f"verify.{mode}.json") == 0
    digests = {name: hashlib.sha256(Path(name).read_bytes()).hexdigest()
               for name in sorted(PINNED_DIGESTS)}
    assert digests == PINNED_DIGESTS


def test_bench_tracer_patches_resolve():
    # the benchmark's traced run looks up every name it wraps in the module
    # namespace, so an import removed from the program breaks `--trace 1`
    from bench.tracer import Tracer, layer_patches
    from coarsecert import cli

    before = cli.brick_tree
    with layer_patches(Tracer("t")):
        assert cli.brick_tree is not before
    assert cli.brick_tree is before
