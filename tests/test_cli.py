import contextlib
import copy
import gc
import hashlib
import importlib
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import coarsecert
from coarsecert import cli, covers, jsonio, metric
from coarsecert.cli import main
from coarsecert.covers import tree_validate
from coarsecert.errors import CoarseCertError
from coarsecert.simplex import PartitionOfUnity
from coarsecert.verify import lipschitz_check
from .conftest import path_space, with_table
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

    @pytest.mark.parametrize("radius", ["nan", "-1", "inf"])
    def test_random_geometric_bad_radius(self, tmp_path, radius):
        assert_input_error(tmp_path, ["generate", "--kind", "random-geometric", "--n", "20",
                                      "--radius", radius, "--out", "rgg.json"],
                           f"random-geometric radius must be finite and >= 0, got {float(radius)!r}")
        assert not (tmp_path / "rgg.json").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--kind", "tree-graph", "--n", "10", "--seed", "-1"], "--seed must be >= 0, got -1"),
        (["--kind", "random-geometric", "--n", "10", "--seed", "-1"], "--seed must be >= 0, got -1"),
        (["--kind", "random-geometric", "--n", "-3"], "--n must be >= 0, got -3"),
        (["--kind", "grid", "--width", "-3", "--height", "-2"], "--width must be >= 0, got -3"),
    ], ids=["tree-seed", "rgg-seed", "rgg-n", "grid-width"])
    def test_negative_count_or_seed(self, tmp_path, flags, message):
        # a traceback, or a 6-point grid refused as disconnected, before
        assert_input_error(tmp_path, ["generate", *flags, "--out", "g.json"], message)
        assert not (tmp_path / "g.json").exists()

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

    def test_greedy_family_is_decided_by_clause_2(self, tmp_path, monkeypatch, capsys):
        # greedy does not re-check its colouring: a conflict search that misses
        # every conflict puts all ten singletons in one family, and the tree's
        # validation refuses it before the tree is written
        def no_conflicts(space, pieces):
            for s in range(len(pieces) - 1):
                yield np.full(len(pieces) - 1 - s, np.inf)

        space, out = tmp_path / "p10.json", tmp_path / "tree.json"
        assert run("generate", "--kind", "path", "--n", 10, "--out", space) == 0
        monkeypatch.setattr(covers, "cross_minima", no_conflicts)
        assert run("decompose", "--space", space, "--strategy", "greedy",
                   "--R", 1, "--diam", 0.5, "--out", out) == 2
        err = capsys.readouterr().err
        assert "clause 2, node 0 family 0: d(0,1)=1 <= R_1=1" in err
        assert not out.exists()

    @pytest.mark.parametrize("shape", [["a"], "ab", {"a": 1}, [None], [9.5], [True], [100],
                                       [3, 4]])
    def test_bad_grid_shape_exit_two(self, tmp_path, capsys, shape):
        # a 10-point path whose grid_shape is no list of 1 or 2 integers >= 1
        # with product 10: a named input error, not a traceback or a bad tree
        space, out = tmp_path / "p10.json", tmp_path / "tree.json"
        jsonio.save_json(space, jsonio.space_to_json(
            "graph", 10, [[x, x + 1, 1.0] for x in range(9)], {"grid_shape": shape}))
        assert run("decompose", "--space", space, "--strategy", "bricks",
                   "--R", 2, "--block-scale", 3, "--out", out) == 2
        assert f"NotAGridError: {space}: grid_shape" in capsys.readouterr().err
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

    def test_overflowing_slack_passes_without_warnings(self, cert, tmp_path):
        # lam * d + C overflows to +inf, the right slack: the claim holds
        space, pou = cert
        out = tmp_path / "rep.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("verify", "--space", space, "--pou", pou, "--lam", 1e308,
                       "--C", 1e308, "--out", out) == 0
        assert out.read_text() == (
            '{"reports":[{"C":1e+308,"check":"lipschitz","lambda":1e+308,"pairs_checked":79800,'
            '"pass":true,"restricted_radius":null,"tolerance":1e-09,"witness":null,'
            '"worst_slack":null}],"v":1}\n')

    def test_overflowing_negative_slack_fails_with_witness(self, cert, tmp_path):
        # lam * d overflows to -inf: the claim fails with slack -inf, which JSON
        # writes as null, as for no pair examined; the witness tells the two apart
        space, pou = cert
        out = tmp_path / "rep.json"
        assert run("verify", "--space", space, "--pou", pou, "--lam=-1e308", "--C", 0,
                   "--out", out) == 1
        rep = json.loads(out.read_text())["reports"][0]
        assert rep["pass"] is False and rep["witness"] is not None
        assert rep["worst_slack"] is None

    def test_negative_exponent_claim_needs_equals(self, cert, capsys):
        # argparse takes "-1e308" after a space for an option, not for a number
        space, pou = cert
        assert run("verify", "--space", space, "--pou", pou, "--lam", "-1e308", "--C", 0) == 2
        assert "expected one argument" in capsys.readouterr().err
        args = cli.make_parser().parse_args(
            ["verify", "--space", "s.json", "--pou", "p.json", "--lam=-1e308", "--C=-2e-3",
             "--M=-1e3", "--epsilon=-5e-1"])
        assert (args.lam, args.C, args.M, args.epsilon) == (-1e308, -2e-3, -1e3, -0.5)

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


def _text(edit, finish):
    """An edit whose file text is finish(json.dumps of the edited object)."""
    def run_edit(obj):
        edit(obj)
        return finish(json.dumps(obj))
    return run_edit


def _bad_vertex_key(obj):
    obj["entries"].update({"0": [["abc", 1.0]]})


def _after_out_of_range(item):
    """Edge 1 out of range, then item in place of edge 2."""
    def edit(obj):
        obj["data"][1] = [1, 99, 1.0]
        obj["data"][2] = item
    return edit


# case -> (file to break, edit, text the error message must contain); an edit
# that returns text writes that text instead of the edited object
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
    "pou weight negative": ("cert.pou.json",
                            lambda obj: obj["entries"].update(
                                {"0": [["0:0", 1.5], ["0:1", -0.5]]}),
                            "cert.pou.json: negative weight -0.5 on vertex 0:1 of point 0"),
    "pou weights all zero": ("cert.pou.json",
                             lambda obj: obj["entries"].update(
                                 {"0": [["0:0", 0.0], ["0:1", 0.0]]}),
                             "cert.pou.json: point 0 has no positive weight"),
    "pou point with no entries": ("cert.pou.json",
                                  lambda obj: obj["entries"].update({"0": []}),
                                  "cert.pou.json: point 0 has no positive weight"),
    "pou weights sum to 0.5": ("cert.pou.json",
                               lambda obj: obj["entries"].update(
                                   {"0": [["0:0", 0.25], ["0:1", 0.25]]}),
                               "cert.pou.json: weights of point 0 sum to 0.5, not 1"),
    "pou weights overflowing their sum": ("cert.pou.json",
                                          lambda obj: obj["entries"].update(
                                              {"0": [["0:0", 1e308], ["0:1", 1e308]]}),
                                          "cert.pou.json: weights of point 0 sum to inf, not 1"),
    "pou faults in two points": ("cert.pou.json",  # the first in file order is named
                                 lambda obj: obj.update(entries={
                                     "3": [["0:0", 0.5]],
                                     **{k: v for k, v in obj["entries"].items()
                                        if k not in ("1", "3")},
                                     "1": [["0:0", -1.0]]}),
                                 "cert.pou.json: weights of point 3 sum to 0.5, not 1"),
    "pou vertex listed twice": ("cert.pou.json",
                                lambda obj: obj["entries"].update(
                                    {"0": [["0:0", 1.0], ["0:0", 1.0]]}),
                                "cert.pou.json: point 0 lists vertex 0:0 twice"),
    "pou vertex listed twice in two spellings": ("cert.pou.json",
                                                 lambda obj: obj["entries"].update(
                                                     {"0": [["0:0", 1.0], ["00:0", 1.0]]}),
                                                 "cert.pou.json: point 0 lists vertex 0:0 twice"),
    "pou weight a string": ("cert.pou.json",
                            lambda obj: obj["entries"].update({"0": [["0:0", "1.0"]]}),
                            "cert.pou.json: weight '1.0' of point 0 is not a JSON number"),
    "pou weight an exponent string": ("cert.pou.json",
                                      lambda obj: obj["entries"].update({"0": [["0:0", "1e0"]]}),
                                      "cert.pou.json: weight '1e0' of point 0 is not a JSON number"),
    "pou weight a boolean": ("cert.pou.json",
                             lambda obj: obj["entries"].update({"0": [["0:0", True]]}),
                             "cert.pou.json: weight True of point 0 is not a JSON number"),
    "pou point key repeated": ("cert.pou.json",  # json.dumps writes the int key as "0" again
                               lambda obj: obj["entries"].update({0: [["0:0", 1.0]]}),
                               "cert.pou.json: not valid JSON (duplicate key '0')"),
    "pou point assigned twice": ("cert.pou.json",
                                 lambda obj: obj["entries"].update({"00": obj["entries"]["0"]}),
                                 "cert.pou.json: pou assigns point 0 twice"),
    "pou point key with an underscore": ("cert.pou.json",  # int() reads "1_0" as 10
                                         lambda obj: obj["entries"].update(
                                             {"1_0": obj["entries"].pop("10")}),
                                         "cert.pou.json: point id '1_0' is not a plain decimal"),
    "pou vertex key with a space": ("cert.pou.json",
                                    lambda obj: obj["entries"].update({"0": [[" 0:0", 1.0]]}),
                                    "cert.pou.json: vertex key ' 0:0' of point 0 is not two "
                                    "plain decimals joined by ':'"),
    "report epsilon a string": ("cert.report.json",
                                lambda obj: obj.update(epsilon=str(obj["epsilon"])),
                                "cert.report.json: epsilon '0.8' is not a number"),
    "report bound a boolean": ("cert.report.json", lambda obj: obj.update(bound=True),
                               "cert.report.json: bound True is not a number"),
    "tree without nodes": ("tree.json", lambda obj: obj.pop("nodes"), "tree.json"),
    "tree nodes missing": ("tree.json", lambda obj: obj.pop("nodes"),
                           'tree.json: tree has no "nodes"'),
    "tree depth missing": ("tree.json", lambda obj: obj.pop("m"), 'tree.json: tree has no "m"'),
    "tree node id missing": ("tree.json", lambda obj: obj["nodes"][1].pop("id"),
                             'tree.json: tree node #1 has no "id"'),
    "tree node level missing": ("tree.json", lambda obj: obj["nodes"][1].pop("level"),
                                'tree.json: tree node #1 has no "level"'),
    "tree node members missing": ("tree.json", lambda obj: obj["nodes"][1].pop("members"),
                                  'tree.json: tree node #1 has no "members"'),
    "report bound missing": ("cert.report.json", lambda obj: obj.pop("bound"),
                             'cert.report.json: report has no "bound"'),
    "report epsilon missing": ("cert.report.json", lambda obj: obj.pop("epsilon"),
                               'cert.report.json: report has no "epsilon"'),
    "tree depth not an integer": ("tree.json", lambda obj: obj.update(m="two"),
                                  "tree.json"),
    "tree depth null": ("tree.json", lambda obj: obj.update(m=None),
                        "tree.json: tree depth None is not an integer"),
    "tree depth NaN": ("tree.json", lambda obj: obj.update(m=float("nan")),
                       "tree.json: tree depth nan is not an integer"),
    "tree member id Infinity": ("tree.json",
                                lambda obj: obj["nodes"][-1]["members"].insert(0, float("inf")),
                                "tree.json: member id inf is not an integer"),
    "pou weight past every float": ("cert.pou.json",
                                    lambda obj: obj["entries"].update({"0": [["0:0", 10**400]]}),
                                    f"cert.pou.json: weight {10**400} of point 0 is too large "
                                    "for a float"),
    "graph edge weight past every float": ("space.json",
                                           lambda obj: obj["data"][0].__setitem__(2, 10**400),
                                           f"space.json: edge (0,1) weight {10**400} is too "
                                           "large for a float"),
    "report epsilon past every float": ("cert.report.json",
                                        lambda obj: obj.update(epsilon=10**400),
                                        f"cert.report.json: epsilon {10**400} is too large "
                                        "for a float"),
    "tree member id null": ("tree.json",
                            lambda obj: obj["nodes"][-1]["members"].insert(0, None),
                            "tree.json: member id None is not an integer"),
    "report epsilon null": ("cert.report.json", lambda obj: obj.update(epsilon=None),
                            "cert.report.json: epsilon None is not a number"),
    "points coordinate null": ("space.json", lambda obj: obj.update(
        kind="points", data={"coords": [[0.0], [None]] + [[float(x)] for x in range(2, obj["n"])],
                             "p": 2}),
        "space.json: coordinate [1][0] None is not a number"),
    "tree radius NaN": ("tree.json", lambda obj: obj.update(radii=[float("nan")]),
                        "tree.json: tree radius nan"),
    "tree radius a string": ("tree.json", lambda obj: obj.update(radii=["10.0"]),
                             "tree.json: tree radius '10.0' is not a number"),
    "tree radius a boolean": ("tree.json", lambda obj: obj.update(radii=[True]),
                              "tree.json: tree radius True is not a number"),
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
    "tree member listed twice": ("tree.json",  # the leaf 0..10 would load as a set
                                 lambda obj: obj["nodes"][1]["members"].append(5),
                                 "tree.json: node 1 lists point 5 twice"),
    "tree member id past every index": ("tree.json",  # PointSubset's intp cannot hold it
                                        lambda obj: obj["nodes"][-1]["members"].insert(0, 2**63),
                                        "tree.json: node 4: point id 9223372036854775808 "
                                        "outside every space"),
    "tree member id past 2**53": ("tree.json",  # no space is that large
                                  lambda obj: obj["nodes"][-1]["members"].insert(0, 2**53 + 1),
                                  f"tree.json: node 4: point id {2**53 + 1} outside every space"),
    "tree nodes not an array": ("tree.json", lambda obj: obj.update(nodes=3),
                                "tree.json: tree nodes is not an array"),
    "tree node not an object": ("tree.json", lambda obj: obj["nodes"].__setitem__(1, 5),
                                "tree.json: tree node #1 is not an object"),
    "tree members a number": ("tree.json", lambda obj: obj["nodes"][1].update(members=5),
                              "tree.json: node 1 members is not an array"),
    "tree members null": ("tree.json", lambda obj: obj["nodes"][1].update(members=None),
                          "tree.json: node 1 members is not an array"),
    "tree families a number": ("tree.json", lambda obj: obj["nodes"][0].update(families=3),
                               "tree.json: node 0 families is not an array"),
    "tree family not an array": ("tree.json",
                                 lambda obj: obj["nodes"][0]["families"].__setitem__(0, 5),
                                 "tree.json: node 0 family 0 is not an array"),
    "tree arity a number": ("tree.json", lambda obj: obj.update(arity=2),
                            "tree.json: tree arity is not an array"),
    "tree radii a number": ("tree.json", lambda obj: obj.update(radii=10.0),
                            "tree.json: tree radii is not an array"),
    "graph space data null": ("space.json", lambda obj: obj.update(data=None),
                              "space.json: space data is not an array"),
    "graph space data an object": ("space.json", lambda obj: obj.update(data={"0": [0, 1, 1.0]}),
                                   "space.json: space data is not an array"),
    "graph space data a string": ("space.json", lambda obj: obj.update(data="0 1 1.0"),
                                  "space.json: space data is not an array"),
    "space meta an array": ("space.json", lambda obj: obj.update(meta=["path"]),
                            "space.json: space meta is not an object"),
    "space meta a string": ("space.json", lambda obj: obj.update(meta="path"),
                            "space.json: space meta is not an object"),
    "pou row null": ("cert.pou.json", lambda obj: obj["entries"].update({"0": None}),
                     "cert.pou.json: point 0's row is not an array"),
    "pou row an object": ("cert.pou.json",
                          lambda obj: obj["entries"].update({"0": {"0:0": 1.0}}),
                          "cert.pou.json: point 0's row is not an array"),
    "pou row a string": ("cert.pou.json", lambda obj: obj["entries"].update({"0": "0:0"}),
                         "cert.pou.json: point 0's row is not an array"),
    "pou entry a number": ("cert.pou.json",
                           lambda obj: obj["entries"].update({"0": [["0:0", 1.0], 5]}),
                           "cert.pou.json: entry #1 of point 0 is not a [vertex, weight] pair"),
    "pou entry of 1 field": ("cert.pou.json",
                             lambda obj: obj["entries"].update({"0": [["0:0"]]}),
                             "cert.pou.json: entry #0 of point 0 is not a [vertex, weight] pair"),
    "pou entry of 3 fields": ("cert.pou.json",
                              lambda obj: obj["entries"].update(
                                  {"0": [["0:0", 0.5], ["0:1", 0.5, 1]]}),
                              "cert.pou.json: entry #1 of point 0 is not a [vertex, weight] pair"),
    "pou entry a number after a repeated vertex": ("cert.pou.json",  # the earlier fault first
                                                   lambda obj: obj["entries"].update(
                                                       {"0": [["0:0", 0.5], ["0:0", 0.5], 5]}),
                                                   "cert.pou.json: point 0 lists vertex 0:0 twice"),
    "graph edge weight NaN": ("space.json",
                              lambda obj: obj["data"][0].__setitem__(2, float("nan")),
                              "space.json: edge (0,1) has non-finite weight nan"),
    "graph distances overflow": ("space.json",  # 1e-10 sends it to the row check
                                 lambda obj: obj.update(data=[[0, 1, 1e308], [1, 2, 1e308]] + [
                                     [x, x + 1, 1e-10 if x == 2 else 1.0]
                                     for x in range(2, obj["n"] - 1)]),
                                 "space.json: graph distance from point 0 to point 2 overflows"),
    "space schema version a boolean": ("space.json", lambda obj: obj.update(v=True),
                                       "space.json: unsupported schema version True"),
    "graph edge without weight": ("space.json", lambda obj: obj["data"][0].pop(),
                                  "space.json: edge (0,1) has 2 fields, expected 3"),
    "graph edge a number": ("space.json", lambda obj: obj["data"].insert(1, 5),
                            "space.json: edge #1 is not an array"),
    "graph edge null": ("space.json", lambda obj: obj["data"].insert(1, None),
                        "space.json: edge #1 is not an array"),
    "graph edge a string": ("space.json", lambda obj: obj["data"].insert(1, "ab"),
                            "space.json: edge #1 is not an array"),
    "graph edge an object": ("space.json", lambda obj: obj["data"].insert(1, {"u": 0}),
                             "space.json: edge #1 is not an array"),
    "graph edge endpoint a string": ("space.json",
                                     lambda obj: obj["data"][1].__setitem__(1, "a"),
                                     "space.json: edge endpoint 'a' is not an integer"),
    "graph edge endpoint null": ("space.json",
                                 lambda obj: obj["data"][1].__setitem__(1, None),
                                 "space.json: edge endpoint None is not an integer"),
    "graph edge endpoint an array": ("space.json",
                                     lambda obj: obj["data"][1].__setitem__(1, [2]),
                                     "space.json: edge endpoint [2] is not an integer"),
    "graph edge weight null": ("space.json",
                               lambda obj: obj["data"][0].__setitem__(2, None),
                               "space.json: edge (0,1) weight None is not a number"),
    "graph edge weight an object": ("space.json",
                                    lambda obj: obj["data"][0].__setitem__(2, {}),
                                    "space.json: edge (0,1) weight {} is not a number"),
    "graph edge with a fourth field": ("space.json",
                                       lambda obj: obj["data"][0].append("x"),
                                       "space.json: edge (0,1) has 4 fields, expected 3"),
    "matrix with fewer rows than n": ("space.json", lambda obj: obj.update(
        kind="matrix", data=[[0, 1, 2], [1, 0, 1], [2, 1, 0]]),
        "space.json: matrix has 3 rows but n is 40"),
    "points fewer than n": ("space.json", lambda obj: obj.update(
        kind="points", data={"coords": [[0.0], [1.0], [2.0]], "p": 2}),
        "space.json: points space has 3 points but n is 40"),
    "graph edge endpoint not an integer": ("space.json",
                                           lambda obj: obj["data"][1].__setitem__(0, 1.5),
                                           "space.json: edge endpoint 1.5 is not an integer"),
    "points space without p": ("space.json", lambda obj: obj.update(
        kind="points", data={"coords": [[float(x)] for x in range(obj["n"])]}),
        'space.json: points data has no "p"'),
    "points space without coords": ("space.json", lambda obj: obj.update(
        kind="points", data={"p": 2}),
        'space.json: points data has no "coords"'),
    "points coords a number": ("space.json", lambda obj: obj.update(
        kind="points", data={"coords": obj["n"], "p": 2}),
        "space.json: points coords is not an array"),
    "points coords flat": ("space.json", lambda obj: obj.update(
        kind="points", data={"coords": [float(x) for x in range(obj["n"])], "p": 2}),
        "space.json: point 0 is not an array"),
    "points point a number": ("space.json", lambda obj: obj.update(
        kind="points", data={"coords": [[0.0], 1.0] + [[float(x)] for x in range(2, obj["n"])],
                             "p": 2}),
        "space.json: point 1 is not an array"),
    "points coordinate past every float": ("space.json", lambda obj: obj.update(
        kind="points",
        data={"coords": [[0.0], [10**400]] + [[float(x)] for x in range(2, obj["n"])], "p": 2}),
        f"space.json: coordinate [1][0] {10**400} is too large for a float"),
    "points p past every float": ("space.json", lambda obj: obj.update(
        kind="points", data={"coords": [[float(x)] for x in range(obj["n"])], "p": 10**400}),
        f"space.json: p {10**400} is too large for a float"),
    "matrix row a number": ("space.json", lambda obj: obj.update(
        kind="matrix", data=[[abs(x - y) for y in range(obj["n"])] if x != 1 else 5
                             for x in range(obj["n"])]),
        "space.json: matrix row 1 is not an array"),
    "matrix rows ragged": ("space.json", lambda obj: obj.update(
        kind="matrix", data=[[abs(x - y) for y in range(obj["n"] - (x == 2))]
                             for x in range(obj["n"])]),
        "space.json: matrix row 2 has 39 entries, expected 40"),
    "matrix entry past every float": ("space.json", lambda obj: obj.update(
        kind="matrix", data=[[abs(x - y) if (x, y) != (0, 1) else 10**400
                              for y in range(obj["n"])] for x in range(obj["n"])]),
        f"space.json: matrix entry [0][1] {10**400} is too large for a float"),
    "points space overflowing lp distance": ("space.json", lambda obj: obj.update(
        kind="points", data={"coords": [[float(x)] for x in range(obj["n"] - 1)] + [[1e200]],
                             "p": 2}),
        "space.json: lp distance from point 0 to point 39 overflows for p=2.0"),
    "graph edge weight a string": ("space.json",
                                   lambda obj: obj["data"][0].__setitem__(2, "2.5"),
                                   "space.json: edge (0,1) weight '2.5' is not a number"),
    "graph edge weight a boolean": ("space.json",
                                    lambda obj: obj["data"][0].__setitem__(2, True),
                                    "space.json: edge (0,1) weight True is not a number"),
    "graph edge endpoint a boolean": ("space.json",
                                      lambda obj: obj["data"][1].__setitem__(0, True),
                                      "space.json: edge endpoint True is not an integer"),
    "points coordinate a string": ("space.json", lambda obj: obj.update(
        kind="points", data={"coords": [["1e0"]] + [[float(x)] for x in range(2, obj["n"] + 1)],
                             "p": 2}),
        "space.json: coordinate [0][0] '1e0' is not a number"),
    "points coordinate a boolean": ("space.json", lambda obj: obj.update(
        kind="points", data={"coords": [[0.0], [True]] + [[float(x)] for x in range(2, obj["n"])],
                             "p": 2}),
        "space.json: coordinate [1][0] True is not a number"),
    "points p a boolean": ("space.json", lambda obj: obj.update(
        kind="points", data={"coords": [[float(x)] for x in range(obj["n"])], "p": True}),
        "space.json: p True is neither a number nor 'inf'"),
    "points p a numeric string": ("space.json", lambda obj: obj.update(
        kind="points", data={"coords": [[float(x)] for x in range(obj["n"])], "p": "2"}),
        "space.json: p '2' is neither a number nor 'inf'"),
    "matrix entry a string": ("space.json", lambda obj: obj.update(
        kind="matrix", data=[[abs(x - y) if (x, y) != (0, 1) else "1" for y in range(obj["n"])]
                             for x in range(obj["n"])]),
        "space.json: matrix entry [0][1] '1' is not a number"),
    "pou syntax error after a bad entry": ("cert.pou.json",  # json's fault comes first
                                           _text(_bad_vertex_key, lambda text: text[:-1]),
                                           "cert.pou.json: not valid JSON (Expecting"),
    "pou version after a bad entry": ("cert.pou.json",
                                      lambda obj: _bad_vertex_key(obj) or obj.update(v=2),
                                      "cert.pou.json: unsupported schema version 2"),
    "pou top-level key repeated": ("cert.pou.json",
                                   _text(lambda obj: None, lambda text: text[:-1] + ', "v": 1}'),
                                   "cert.pou.json: not valid JSON (duplicate key 'v')"),
    "pou with a UTF-8 BOM": ("cert.pou.json", _text(lambda obj: None, "\ufeff".__add__),
                             "cert.pou.json: not valid JSON (Unexpected UTF-8 BOM"),
    "pou a top-level array": ("cert.pou.json", _text(lambda obj: None, "[{}]".format),
                              "cert.pou.json: expected a JSON object"),
    "space with a UTF-8 BOM": ("space.json", _text(lambda obj: None, "\ufeff".__add__),
                               "space.json: not valid JSON (Unexpected UTF-8 BOM"),
    "graph edge a boolean after an out-of-range edge": (
        "space.json", _after_out_of_range(True), "space.json: edge (1,99) out of range for n=40"),
    "graph edge a string after an out-of-range edge": (
        "space.json", _after_out_of_range("ab"), "space.json: edge (1,99) out of range for n=40"),
    "graph edge of 2 fields after an out-of-range edge": (
        "space.json", _after_out_of_range([2, 3]), "space.json: edge (1,99) out of range for n=40"),
    "graph edge weight a boolean after an out-of-range edge": (
        "space.json", _after_out_of_range([2, 3, True]),
        "space.json: edge (1,99) out of range for n=40"),
    "graph edge endpoint past every float after an out-of-range edge": (
        "space.json", _after_out_of_range([2, 10**400, 1.0]),
        "space.json: edge (1,99) out of range for n=40"),
    "graph edge endpoint past 2**53": ("space.json",  # a float64 would read 2**53
                                       lambda obj: obj["data"][1].__setitem__(1, 2**53 + 1),
                                       f"space.json: edge (1,{2**53 + 1}) out of range for n=40"),
    "graph edge repeating a key after an out-of-range edge": (  # json's fault comes first
        "space.json", _text(_after_out_of_range({"u": 0}),
                            lambda text: text.replace('{"u": 0}', '{"u": 0, "u": 1}')),
        "space.json: not valid JSON (duplicate key 'u')"),
    "matrix entry a boolean": ("space.json", lambda obj: obj.update(
        kind="matrix", data=[[abs(x - y) if (x, y) != (1, 0) else True for y in range(obj["n"])]
                             for x in range(obj["n"])]),
        "space.json: matrix entry [1][0] True is not a number"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_artifact_exit_two(case, clean_artifacts, tmp_path):
    for name in ("space.json", "tree.json", "cert.pou.json", "cert.report.json"):
        shutil.copy(clean_artifacts / name, tmp_path / name)
    target, edit, message = MALFORMED[case]
    obj = json.loads((tmp_path / target).read_text())
    text = edit(obj)
    (tmp_path / target).write_text(text if isinstance(text, str) else json.dumps(obj),
                                   encoding="utf-8")
    if target == "tree.json":
        args = ["certify", "--space", "space.json", "--tree", "tree.json",
                "--epsilon", "0.8", "--modulus", "linear:2", "--out", "again"]
    elif target == "cert.report.json":
        args = ["verify", "--space", "space.json", "--pou", "cert.pou.json",
                "--report", "cert.report.json"]
    else:
        args = ["verify", "--space", "space.json", "--pou", "cert.pou.json",
                "--epsilon", "0.8"]
    assert_input_error(tmp_path, args, message)


def assert_input_error(cwd, args, message, error="InvalidInputError"):
    """The CLI, run as a process in cwd, exits 2 naming the problem, no traceback."""
    env = dict(os.environ, PYTHONPATH=str(Path(coarsecert.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "coarsecert.cli", *args], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert f"error: {error}: " in proc.stderr
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("flags, message", [
    (("greedy", "--R", "10", "--diam", "nan"), "target_diam must be > 0, got nan"),
    (("greedy", "--R", "nan", "--diam", "10"), "R = nan is not a number"),
    (("bricks", "--R", "10", "--block-scale", "nan"), "block_scale must be a number, got nan"),
])
def test_nan_scale_exit_two(clean_artifacts, tmp_path, flags, message):
    # a NaN diameter used to keep the greedy carving loop going forever; the
    # process here runs under a time limit
    shutil.copy(clean_artifacts / "space.json", tmp_path / "space.json")
    assert_input_error(tmp_path, ["decompose", "--space", "space.json", "--strategy", *flags,
                                  "--out", "tree.json"], message)
    assert not (tmp_path / "tree.json").exists()


@pytest.mark.parametrize("spec, message", [
    ("linear:abc", "modulus spec 'linear:abc': could not convert string to float: 'abc'"),
    ("linear:inf", "modulus spec 'linear:inf': linear modulus needs a finite c > 1, got inf"),
])
def test_bad_modulus_exit_two(clean_artifacts, tmp_path, spec, message):
    # exit 1 means a certificate failed its verification; a bad spec is input
    for name in ("space.json", "tree.json"):
        shutil.copy(clean_artifacts / name, tmp_path / name)
    assert_input_error(tmp_path, ["certify", "--space", "space.json", "--tree", "tree.json",
                                  "--epsilon", "0.8", "--modulus", spec, "--out", "cert"],
                       message)
    assert not (tmp_path / "cert.pou.json").exists()


@pytest.mark.parametrize("workers", ["0", "-5"])
def test_workers_below_one_exit_two(clean_artifacts, tmp_path, capsys, workers):
    d = clean_artifacts
    assert run("certify", "--space", d / "space.json", "--tree", d / "tree.json",
               "--epsilon", 0.8, "--modulus", "linear:2", "--workers", workers,
               "--out", tmp_path / "cert") == 2
    assert run("verify", "--space", d / "space.json", "--pou", d / "cert.pou.json",
               "--epsilon", 0.8, "--workers", workers) == 2
    assert capsys.readouterr().err.count(f"workers must be >= 1, got {workers}") == 2
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("mode", ["restricted", "full"])
def test_certify_has_no_mode(clean_artifacts, tmp_path, capsys, mode):
    # the mandatory check is restricted (criterion 4 pins that it agrees with
    # full mode); verify --mode full is the consumer's full check
    d = clean_artifacts
    assert run("certify", "--space", d / "space.json", "--tree", d / "tree.json",
               "--epsilon", 0.8, "--modulus", "linear:2", "--mode", mode,
               "--out", tmp_path / "cert") == 2
    assert "unrecognized arguments: --mode" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_missing_input_file_exit_two(clean_artifacts):
    assert_input_error(clean_artifacts, ["verify", "--space", "space.json",
                                         "--pou", "nothing.pou.json", "--epsilon", "0.8"],
                       "nothing.pou.json: cannot read")


@pytest.mark.parametrize("command", ["generate", "decompose", "certify", "verify"])
def test_output_in_missing_directory_exit_two(clean_artifacts, command):
    # exit 1 means a failed verification; an unwritable --out is input
    args = {"generate": ["--kind", "path", "--n", "5"],
            "decompose": ["--space", "space.json", "--strategy", "bricks",
                          "--R", "10", "--block-scale", "11"],
            "certify": ["--space", "space.json", "--tree", "tree.json",
                        "--epsilon", "0.8", "--modulus", "linear:2"],
            "verify": ["--space", "space.json", "--pou", "cert.pou.json", "--epsilon", "0.8"]}
    out = "missing/out" if command == "certify" else "missing/out.json"
    assert_input_error(clean_artifacts, [command, *args[command], "--out", out],
                       f"{out}{'.pou.json' if command == 'certify' else ''}: cannot write")
    assert not (clean_artifacts / "missing").exists()


def test_table_free_cloud_overflow_exit_two(tmp_path):
    # the only overflowing pair, 4198-4199, is one the sampled triangle
    # check does not reach
    coords = [[float(x)] for x in range(4198)] + [[-1e154], [1e154]]
    jsonio.save_json(tmp_path / "space.json",
                     jsonio.space_to_json("points", 4200, {"coords": coords, "p": 2}))
    assert_input_error(tmp_path, ["decompose", "--space", "space.json", "--strategy", "greedy",
                                  "--R", "1", "--diam", "4", "--out", "tree.json"],
                       "space.json: lp distance from point 4198 to point 4199 overflows")


def test_table_free_cloud_duplicate_exit_two(tmp_path):
    # point 4199 repeats point 0, which no sampled row need meet
    coords = [[float(x)] for x in range(4199)] + [[0.0]]
    jsonio.save_json(tmp_path / "space.json",
                     jsonio.space_to_json("points", 4200, {"coords": coords, "p": 2}))
    assert_input_error(tmp_path, ["decompose", "--space", "space.json", "--strategy", "greedy",
                                  "--R", "1", "--diam", "4", "--out", "tree.json"],
                       "space.json: d(0,4199)=0 for distinct points 0 != 4199",
                       error="ZeroOffDiagonalError")
    assert not (tmp_path / "tree.json").exists()


def heavy_path(n):
    """Path edges weighing 100 to 200: distances near 6e5, whose last bit is above METRIC_TOL."""
    r = random.Random(1)
    return [[i, i + 1, 100 * (1 + r.random())] for i in range(n - 1)]


def test_heavy_float_path_loads_on_both_lanes(tmp_path, monkeypatch):
    # a triangle sample with a flat 1e-9 tolerance rejected it above the
    # dense limit; both lanes certify their rows against the edges instead:
    # every row up to the limit, the seeded pool above it
    certified, real = [], metric._validate_shortest_paths
    monkeypatch.setattr(metric, "_validate_shortest_paths",
                        lambda space, ids: certified.append(len(ids)) or real(space, ids))
    for n in (4000, 4200):
        assert not metric.load_graph(n, heavy_path(n)).has_table
    assert (4000 <= metric.DENSE_LIMIT < 4200
            and certified == [4000, len(metric._sample_pool(4200))])
    jsonio.save_json(tmp_path / "heavy.json",
                     jsonio.space_to_json("graph", 4200, heavy_path(4200), {"grid_shape": [4200]}))
    assert run("decompose", "--space", tmp_path / "heavy.json", "--strategy", "bricks",
               "--R", 79, "--block-scale", 80, "--out", tmp_path / "tree.json") == 0


def strict_json(path):
    """A JSON file's object, refusing Infinity and NaN, which are not JSON."""
    def refuse(name):
        raise ValueError(f"{path} holds {name}")
    return json.loads(Path(path).read_text(), parse_constant=refuse)


def test_check_over_no_pair_writes_null(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # one point: the certificate's Lipschitz check has no pair to examine
    assert run("generate", "--kind", "path", "--n", 1, "--out", "one.json") == 0
    assert run("decompose", "--space", "one.json", "--strategy", "bricks",
               "--R", 1, "--block-scale", 2, "--out", "one.tree.json") == 0
    assert run("certify", "--space", "one.json", "--tree", "one.tree.json",
               "--epsilon", 0.4, "--modulus", "linear:4", "--out", "one") == 0
    lip = strict_json("one.report.json")["lipschitz"]
    assert lip["pairs_checked"] == 0 and lip["worst_slack"] is None
    # three points 10 apart: no pair within the restricted radius 2/eps - 1 = 4
    jsonio.save_json("three.json", jsonio.space_to_json(
        "graph", 3, [[0, 1, 10.0], [1, 2, 10.0]], {"grid_shape": [3]}))
    assert run("decompose", "--space", "three.json", "--strategy", "bricks",
               "--R", 79, "--block-scale", 80, "--out", "three.tree.json") == 0
    assert run("certify", "--space", "three.json", "--tree", "three.tree.json",
               "--epsilon", 0.4, "--modulus", "linear:4", "--out", "three") == 0
    assert run("verify", "--space", "three.json", "--pou", "three.pou.json",
               "--report", "three.report.json", "--mode", "restricted", "--out", "v.json") == 0
    lip = strict_json("v.json")["reports"][0]
    assert lip["pairs_checked"] == 0 and lip["worst_slack"] is None


def test_non_finite_value_is_never_written():
    with pytest.raises(ValueError):
        jsonio.dumps_canonical({"worst_slack": float("inf")})


def test_integral_floats_load(clean_artifacts, tmp_path):
    # 2.0 is the integer 2; only values that int() would change are refused
    space = json.loads((clean_artifacts / "space.json").read_text())
    space["data"][1][:2] = [1.0, 2.0]
    space["v"] = 1.0
    tree = json.loads((clean_artifacts / "tree.json").read_text())
    tree["nodes"][-1]["level"] = float(tree["nodes"][-1]["level"])
    (tmp_path / "space.json").write_text(json.dumps(space))
    (tmp_path / "tree.json").write_text(json.dumps(tree))
    assert run("certify", "--space", tmp_path / "space.json", "--tree", tmp_path / "tree.json",
               "--epsilon", 0.8, "--modulus", "linear:2", "--out", tmp_path / "again") == 0
    for sfx in (".report.json", ".schedule.json"):
        assert ((tmp_path / f"again{sfx}").read_bytes()
                == (clean_artifacts / f"cert{sfx}").read_bytes())


@pytest.mark.parametrize("key, weight, code", [
    ("99999999999999999999999:0", 1.0, 0),  # a namespace beyond int64
    ("0:0", 1, 0),  # an integer weight
    ("0:0", 1 + 9e-10, 0),  # within SUM_TOL of 1
    ("0:0", 1 + 2e-9, 2),  # beyond it
])
def test_constant_pou_weights(clean_artifacts, tmp_path, key, weight, code):
    n = json.loads((clean_artifacts / "space.json").read_text())["n"]
    (tmp_path / "c.pou.json").write_text(json.dumps(
        {"v": 1, "space": "", "entries": {str(x): [[key, weight]] for x in range(n)}}))
    assert run("verify", "--space", clean_artifacts / "space.json",
               "--pou", tmp_path / "c.pou.json", "--epsilon", 0.8) == code


def test_negative_zero_weight_dropped(clean_artifacts, tmp_path):
    # an extra vertex of weight 0.0 or -0.0 is dropped: the cobounded report
    # counts the carrier's vertices, so it would see one left behind
    outs = []
    for zero in (None, 0.0, -0.0):
        obj = json.loads((clean_artifacts / "cert.pou.json").read_text())
        if zero is not None:
            obj["entries"]["0"].append(["77:0", zero])
        (tmp_path / "z.pou.json").write_text(json.dumps(obj))  # -0.0 is written as -0.0
        assert run("verify", "--space", clean_artifacts / "space.json",
                   "--pou", tmp_path / "z.pou.json", "--report", clean_artifacts / "cert.report.json",
                   "--out", tmp_path / "z.json") == 0
        outs.append((tmp_path / "z.json").read_bytes())
    assert outs[0] == outs[1] == outs[2]


# what the value at a drawn JSON path becomes: wrong types, a numeric string,
# non-finite floats, out-of-range and non-integral numbers, an int past every
# float, containers, itself in an array; or it is dropped, or a key is added
_WRAP, _DROP, _ADD = "<wrap>", "<drop>", "<add>"
FUZZ_EDITS = [None, False, "1", float("nan"), math.inf, -math.inf, -1, 1.5, 10**6, 10**400,
              [], {}, _WRAP, _DROP, _ADD]
FUZZ_SPACES = ("space.json", "points.json", "matrix.json")


@pytest.mark.parametrize("edit, verdict", [
    (lambda t: t["nodes"][0].update(members=[]),
     "InvalidInputError: {}: tree validation failed: clause 1, root misses point 0"),
    (lambda t: t["nodes"][1].update(members=[]),
     "InvalidInputError: {}: tree validation failed: clause 2, node 0 family 0: child 1 is empty"),
    (lambda t: t.update(arity=[10**400]), "UnderflowError_: {}: budget underflow at level 2"),
    (lambda t: t.update(radii=[1.5]),
     "ScheduleMismatchError: {}: tree radius R_1=1.5 below schedule requirement 9.0"),
])
def test_certify_verdicts_name_the_tree(clean_artifacts, tmp_path, capsys, edit, verdict):
    # a tree that loads but fails validation or the budgets: exit 2, naming the file
    tree = json.loads((clean_artifacts / "tree.json").read_text())
    edit(tree)
    (tmp_path / "bad.json").write_text(json.dumps(tree))
    assert run("certify", "--space", clean_artifacts / "space.json",
               "--tree", tmp_path / "bad.json", "--epsilon", 0.8, "--modulus", "linear:2",
               "--out", tmp_path / "again") == 2
    assert verdict.format(tmp_path / "bad.json") in capsys.readouterr().err


@pytest.fixture(scope="module")
def fuzz_artifacts(clean_artifacts):
    """clean_artifacts' files, parsed, and the path's metric as a cloud and as a matrix."""
    docs = {name: json.loads((clean_artifacts / name).read_text())
            for name in ("space.json", "tree.json", "cert.pou.json", "cert.report.json")}
    n = docs["space.json"]["n"]
    docs["points.json"] = jsonio.space_to_json(
        "points", n, {"coords": [[float(x)] for x in range(n)], "p": 1})
    docs["matrix.json"] = jsonio.space_to_json(
        "matrix", n, [[abs(x - y) for y in range(n)] for x in range(n)])
    return docs


def _fuzz_runs(d, target):
    """(command, exit code, stderr) of each command that reads target, run in-process in d.

    certify reads the graph space and the tree, verify every file but the tree.
    """
    space = d / (target if target in FUZZ_SPACES else "space.json")
    commands = []
    if target in ("space.json", "tree.json"):
        commands.append(["certify", "--space", space, "--tree", d / "tree.json",
                         "--epsilon", 0.8, "--modulus", "linear:2", "--out", d / "again"])
    if target != "tree.json":
        commands.append(["verify", "--space", space, "--pou", d / "cert.pou.json"] + (
            ["--report", d / target] if target == "cert.report.json" else ["--epsilon", 0.8]))
    for args in commands:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run(*args)
        yield args[0], code, err.getvalue()


def test_fuzz_inputs_pass(fuzz_artifacts, tmp_path):
    for name, doc in fuzz_artifacts.items():
        (tmp_path / name).write_text(json.dumps(doc))
    for target in fuzz_artifacts:
        assert all(code == 0 for _, code, _ in _fuzz_runs(tmp_path, target)), target


@given(data=st.data())
@settings(derandomize=True, deadline=None, max_examples=550)
def test_fuzzed_artifact_exits_cleanly(fuzz_artifacts, data):
    # one edit at a drawn path of one artifact: every outcome is an exit code,
    # never an escape, and an input error names the file and its fault
    target = data.draw(st.sampled_from(sorted(fuzz_artifacts)))
    docs = copy.deepcopy(fuzz_artifacts)
    node, key = docs, target
    while isinstance(node[key], (dict, list)) and node[key] and (
            node is docs or data.draw(st.booleans())):
        node = node[key]
        key = data.draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                        else range(len(node))))
    edit = data.draw(st.sampled_from(FUZZ_EDITS))
    if edit == _DROP:
        del node[key]
    elif edit == _ADD:
        if isinstance(node, dict):
            node["added"] = 0
        else:
            node.insert(key, 0)
    else:
        node[key] = [node[key]] if edit == _WRAP else edit
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        for name, doc in docs.items():
            (d / name).write_text(json.dumps(doc))
        for command, code, err in _fuzz_runs(d, target):
            assert code in (0, 1, 2)
            if code == 2:
                assert "malformed artifact (" not in err, err
                assert f"{d / target}: " in err, err


class TestRoundTrips:
    def test_pou_roundtrip_exact(self, p100_file, tmp_path):
        sp = jsonio.load_space(p100_file)
        rng = np.random.default_rng(13)
        f = random_lipschitz_pou(sp, range(100), 0.3, rng, n_vertices=5)
        path = tmp_path / "f.pou.json"
        jsonio.save_json(path, jsonio.pou_to_json(f, space_ref="p100"))
        g = jsonio.load_pou(path, sp)
        assert np.array_equal(g.domain.ids, f.domain.ids)
        for x in range(100):
            assert g(x) == f(x)  # bit-exact round trip

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

    @staticmethod
    def _reference_text(f, space_ref):
        """The pou file as dumps_canonical of its dict: rows in (vertex, weight) order."""
        entries = {str(x): [[f"{v[0]}:{v[1]}", w] for v, w in sorted(f(x).items())]
                   for x in f.domain.ids}
        return jsonio.dumps_canonical({"v": 1, "space": space_ref, "entries": entries})

    @given(st.dictionaries(
               st.integers(0, 119),
               st.dictionaries(st.tuples(st.integers(0, 12), st.integers(0, 12)),
                               st.floats(1e-3, 1e3), min_size=1, max_size=4),
               max_size=30),
           st.text(max_size=8) | st.just('a"b\\c\u00e9\u4e2d'))
    @example({2: {(0, 1): 0.30000000000000004, (11, 2): 0.7},  # 17 digits
              10: {(10, 0): 1.0},
              100: {(3, 4): 0.1, (12, 0): 0.2, (0, 12): 0.7}},  # "10" < "100" < "2"
             'a"b\\c\u00e9')
    @settings(max_examples=100, deadline=None)
    def test_pou_text_is_canonical_dumps(self, raw, space_ref):
        # each row rescaled to sum to 1, in a key order that is not the sorted one
        assignment = {x: {v: w / math.fsum(row.values()) for v, w in reversed(row.items())}
                      for x, row in raw.items()}
        f = PartitionOfUnity(path_space(120), assignment)
        text = jsonio.pou_to_json(f, space_ref=space_ref)
        assert text == self._reference_text(f, space_ref)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "f.pou.json"
            path.write_text(text, encoding="utf-8")
            again = jsonio.load_pou(path, f.space)
        assert jsonio.pou_to_json(again, space_ref=space_ref) == text

    def test_pou_text_refuses_non_finite_weight(self):
        sp = path_space(3)
        f = PartitionOfUnity._from_csr(sp, np.arange(3), np.arange(4), np.zeros(3, dtype=np.intp),
                                       [(0, 0)], np.array([1.0, math.inf, 1.0]))
        with pytest.raises(ValueError):
            jsonio.pou_to_json(f)

    def test_pou_load_memory_below_parsed_file(self, tmp_path):
        # a pou shaped like a certificate's on a 6000-point path: one vertex per
        # block of 40 points, and two on the 5 points either side of a seam
        n = 6000
        entries = {}
        for x in range(n):
            b, k = divmod(x, 40)
            if 0 < b and k < 5:
                t = (k + 6) / 11 + x * 1e-9
                entries[str(x)] = [[f"1:{b - 1}", 1 - t], [f"1:{b}", t]]
            else:
                entries[str(x)] = [[f"1:{b}", 1.0]]
        text = json.dumps({"v": 1, "space": "p6000", "entries": entries})
        path = tmp_path / "f.pou.json"
        path.write_text(text, encoding="utf-8")
        space = path_space(n)
        del entries
        tracemalloc.start()
        try:
            obj = json.loads(text)
            parsed = tracemalloc.get_traced_memory()[0]
            del obj
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            f = jsonio.load_pou(path, space)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert len(f.domain) == n
        assert peak < parsed, (peak, parsed)


class TestStreamedReads:
    """Pou and space files are read one entry at a time, into arrays."""

    def test_pou_load_memory_below_four_file_sizes(self, tmp_path):
        # every point's one entry on one vertex; the parsed JSON tree alone took
        # 22.6 file sizes at the last whole-tree reader, a load 5.0 while the
        # flat inputs lived on through the sort by id, and 3.8 here
        n = 20000
        path = tmp_path / "one.pou.json"
        jsonio.save_json(path, {"v": 1, "space": "p", "entries": {
            str(x): [["0:0", 1.0]] for x in range(n)}})
        space = path_space(n)
        tracemalloc.start()
        try:
            f = jsonio.load_pou(path, space)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(f.domain) == n and f.carrier() == ((0, 0),)
        assert peak < 4 * path.stat().st_size, (peak, path.stat().st_size)

    def test_space_load_calls_no_converter_per_edge(self, tmp_path, monkeypatch):
        n = 20000
        path = tmp_path / "p.json"
        jsonio.save_json(path, jsonio.space_to_json(
            "graph", n, [[x, x + 1, 1.0] for x in range(n - 1)]))
        calls = []

        def counted(name, fn):
            return lambda *args: calls.append(name) or fn(*args)

        for module in (jsonio, metric):
            for name in ("as_int", "as_float"):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        sp = jsonio.load_space(path)
        assert sp.n == n and sp.d(0, n - 1) == n - 1
        assert calls == ["as_int"]  # the vertex count

    def test_tree_load_calls_no_converter_per_member(self, tmp_path, monkeypatch):
        sp = path_space(6000)
        path = tmp_path / "t.json"
        jsonio.save_json(path, jsonio.tree_to_json(covers.brick_tree(sp, [159.0], 160.0)))
        calls = []
        monkeypatch.setattr(covers, "as_int", lambda *args: calls.append(args) or int(args[0]))
        tree = jsonio.load_tree(path)
        members = sum(len(nd.members) for nd in tree.nodes)
        # ids, levels, child ids and arities: none per member
        assert members == 2 * 6000 and len(calls) <= 3 * len(tree.nodes) + tree.m

    # each step on a 20000-point path, within these many file sizes under
    # tracemalloc: 12.0, 21.1, 8.2 and 13.0 when the graph went through COO
    # arrays and the writers through whole lists; 5.8, 2.1, 2.8 and 2.5 here
    @pytest.mark.parametrize("step, bound", [("space load", 6.5), ("tree save", 3.0),
                                             ("tree load", 3.5), ("pou save", 3.5)])
    def test_io_memory_within_file_sizes(self, tmp_path, step, bound):
        n = 20000
        path = tmp_path / "p.json"
        jsonio.save_json(path, jsonio.space_to_json(
            "graph", n, [[x, x + 1, 1.0] for x in range(n - 1)], {"grid_shape": [n]}))
        space = jsonio.load_space(path)
        tree = covers.brick_tree(space, [159.0], 160.0)
        pou = PartitionOfUnity.constant(space, space.all_points(), (0, 0))
        steps = {
            "space load": (path, lambda: jsonio.load_space(path)),
            "tree save": (tmp_path / "t.json", lambda: jsonio.save_json(
                tmp_path / "t.json", jsonio.tree_to_json(tree))),
            "tree load": (tmp_path / "t.json", lambda: jsonio.load_tree(tmp_path / "t.json")),
            "pou save": (tmp_path / "f.pou.json", lambda: jsonio.save_json(
                tmp_path / "f.pou.json", jsonio.pou_to_json(pou, space_ref="p.json"))),
        }
        jsonio.save_json(tmp_path / "t.json", jsonio.tree_to_json(tree))
        out, run_step = steps[step]
        del space  # only what the step makes is traced
        tracemalloc.start()
        try:
            run_step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * out.stat().st_size, (peak, out.stat().st_size)

    @pytest.mark.parametrize("rows", [1, 2, 3, 7])
    def test_writers_in_blocks_are_canonical(self, monkeypatch, rows):
        # rows of a pou, and members of a tree node, rendered a few at a time
        # give dumps_canonical's text of the whole objects
        sp = path_space(1500)
        tree = covers.brick_tree(sp, [159.0], 160.0)
        rng = np.random.default_rng(rows)
        ids = rng.choice(1500, size=300, replace=False)  # ids of 1 to 4 digits
        f = PartitionOfUnity(sp, {int(x): {(int(a), 0): 0.25, (int(b), 1): 0.75}
                                  for x, a, b in zip(ids, rng.integers(0, 50, 300),
                                                     rng.integers(50, 100, 300))})
        monkeypatch.setattr(jsonio, "ROW_BLOCK_CELLS", 64 * rows)
        assert jsonio.tree_to_json(tree) == jsonio.dumps_canonical({**tree.to_json(), "v": 1})
        assert jsonio.pou_to_json(f, "s") == TestRoundTrips._reference_text(f, "s")

    @given(st.sets(st.integers(0, 2 ** 53 - 1) | st.integers(0, 1200), max_size=60))
    @example({0, 1, 9, 10, 100, 11, 2, 2 ** 53 - 1, 1000})
    @settings(max_examples=200, deadline=None)
    def test_string_order_is_sort_keys_order(self, ids):
        ids = np.array(sorted(ids), dtype=np.intp)
        want = sorted(range(len(ids)), key=lambda i: str(ids[i]))
        assert jsonio._string_order(ids).tolist() == want

    @given(st.text(alphabet="0123456789,-", max_size=24)
           | st.lists(st.integers(-10 ** 17, 10 ** 20), max_size=6).map(
               lambda xs: ",".join(map(str, xs))))
    @example("9007199254740991,9007199254740992")  # the last id below 2**53, and 2**53
    @example("99999999999999999999")  # past int64, which np.fromstring clamps
    @example("0,00,1")
    @settings(max_examples=400, deadline=None)
    def test_members_read_as_json_reads_them(self, inside):
        # the members array of a tree node, written with no sign, is read from
        # its text into int64 exactly when json gives integers below 2**53, the same
        text = '{"members":[' + inside + "]}"
        try:
            want = json.loads(text)["members"]
        except ValueError:
            want = None
        try:
            got = jsonio._read_node(jsonio._Cursor(text))["members"]
        except jsonio._NotJson:
            got = None
        fast = isinstance(got, np.ndarray)
        assert fast == ("-" not in inside and want is not None
                        and all(type(x) is int and 0 <= x < 2 ** 53 for x in want))
        assert (got.tolist() if fast else got) == want

    @pytest.mark.parametrize("bad", [2 ** 53 + 1, -(2 ** 53) - 1, 10 ** 15, 1.5, True, None,
                                     "3", 5, -3])
    def test_compact_and_spaced_trees_load_alike(self, tmp_path, bad):
        # members read from compact text, or decoded by json, meet the same checks
        sp = path_space(40)
        obj = {**covers.brick_tree(sp, [10.0], 11.0).to_json(), "v": 1}
        obj["nodes"][1]["members"].insert(1, bad)
        outcomes = []
        for name, text in (("compact", jsonio.dumps_canonical(obj)),
                           ("spaced", json.dumps(obj, indent=1))):
            (tmp_path / name).write_text(text, encoding="utf-8")
            try:
                outcomes.append(jsonio.load_tree(tmp_path / name).to_json())
            except CoarseCertError as exc:
                outcomes.append(str(exc).split(": ", 1)[1])
        assert outcomes[0] == outcomes[1]

    def test_faulty_pou_writes_no_file(self, tmp_path):
        # a non-finite weight is refused before the file is opened
        sp = path_space(3)
        f = PartitionOfUnity._from_csr(sp, np.arange(3), np.arange(4), np.zeros(3, dtype=np.intp),
                                       [(0, 0)], np.array([1.0, math.nan, 1.0]))
        path = tmp_path / "f.pou.json"
        for before in (None, "kept"):
            if before:
                path.write_text(before)
            with pytest.raises(ValueError):
                jsonio.save_json(path, jsonio.pou_to_json(f))
            with pytest.raises(ValueError):
                jsonio.save_json(path, {"v": 1, "worst": math.inf})
            assert (path.read_text() if before else path.exists()) == (before or False)

    @pytest.mark.parametrize("indent", [None, 1])
    def test_any_layout_reads_the_same(self, p100_file, tmp_path, indent):
        # json.dumps's own layouts, keys in reverse: the same space and pou
        sp = jsonio.load_space(p100_file)
        f = random_lipschitz_pou(sp, range(100), 0.3, np.random.default_rng(5), n_vertices=3)
        pou_file = tmp_path / "f.pou.json"
        jsonio.save_json(pou_file, jsonio.pou_to_json(f))

        def relaid(obj):
            if isinstance(obj, dict):
                return {k: relaid(obj[k]) for k in reversed(list(obj))}
            return [relaid(x) for x in obj] if isinstance(obj, list) else obj

        for source in (p100_file, pou_file):
            out = tmp_path / f"relaid.{source.name}"
            out.write_text(json.dumps(relaid(json.loads(source.read_text())), indent=indent))
        sp2 = jsonio.load_space(tmp_path / f"relaid.{p100_file.name}")
        assert sp2.n == sp.n and (sp2._graph.matrix != sp._graph.matrix).nnz == 0
        g = jsonio.load_pou(tmp_path / "relaid.f.pou.json", sp2)
        assert jsonio.pou_to_json(g) == pou_file.read_text()


class TestDeterminism:
    def test_certify_byte_identical_across_runs_and_workers(self, tmp_path):
        space = tmp_path / "p.json"
        tree = tmp_path / "tree.json"
        run("generate", "--kind", "path", "--n", 300, "--out", space)
        run("decompose", "--space", space, "--strategy", "bricks",
            "--R", 64, "--block-scale", 65, "--out", tree)
        outs = []
        # --workers is accepted and ignored: it must not change a byte
        for tag, extra in (("a", ()), ("b", ("--workers", 4)), ("c", ())):
            assert run("certify", "--space", space, "--tree", tree,
                       "--epsilon", 0.5, "--modulus", "linear:4",
                       *extra, "--out", tmp_path / tag) == 0
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


def pipeline_artifacts(workdir, table):
    """Each artifact of bricks, certify and both verify modes on workdir/space.json, as bytes.

    On the dense lane every row is certified at load and the space answers
    from an all-pairs table built by the test (with_table); on the
    table-free lane the seeded pool is certified and every row is a
    Dijkstra call.
    """
    with pytest.MonkeyPatch.context() as mp:
        if table == "table-free":
            mp.setattr(metric, "DENSE_LIMIT", 0)
        else:
            load = jsonio.load_graph
            mp.setattr(jsonio, "load_graph", lambda *args, **kw: with_table(load(*args, **kw)))
        mp.chdir(workdir)
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
    return {name: (workdir / name).read_bytes() for name in sorted(PINNED_DIGESTS)}


@pytest.mark.parametrize("table", ["dense", "table-free"])
def test_artifacts_independent_of_dense_table(table, tmp_path):
    # the dense table and Dijkstra rows are two ways to answer one distance
    # query; every artifact must come out byte-identical either way
    assert run("generate", "--kind", "path", "--n", 400, "--out", tmp_path / "space.json") == 0
    digests = {name: hashlib.sha256(data).hexdigest()
               for name, data in pipeline_artifacts(tmp_path, table).items()}
    assert digests == PINNED_DIGESTS


def test_float_weighted_artifacts_independent_of_dense_table(tmp_path):
    # weights in [0.5, 1.5] plus chords: Dijkstra rows that differ from their
    # transposes in the last bits, which a symmetrized table would not keep
    rng = np.random.default_rng(0)
    edges = [[i, i + 1, float(rng.uniform(0.5, 1.5))] for i in range(399)]
    edges += [[i, i + 3, float(rng.uniform(2.5, 4.5))] for i in range(0, 397, 7)]
    lanes = []
    for table in ("dense", "table-free"):
        (tmp_path / table).mkdir()
        jsonio.save_json(tmp_path / table / "space.json", jsonio.space_to_json(
            "graph", 400, edges, {"grid_shape": [400]}))
        lanes.append(pipeline_artifacts(tmp_path / table, table))
    assert lanes[0] == lanes[1]


def test_bench_tracer_patches_resolve():
    # the benchmark's traced run looks up every name it wraps in the module
    # namespace, so an import removed from the program breaks `--trace 1`
    from bench.tracer import Tracer, layer_patches
    from coarsecert import cli

    before = cli.brick_tree
    with layer_patches(Tracer("t")):
        assert cli.brick_tree is not before
    assert cli.brick_tree is before


_LOADED = ("import json, sys; from coarsecert.cli import main; code = main(sys.argv[1:]); "
           "print(json.dumps(sorted(m for m in sys.modules "
           "if m.startswith('coarsecert.') or m in ('numpy', 'scipy')))); sys.exit(code)")
# what each command loads: --help and usage errors only the parser, every
# command that reads a file jsonio's stack with numpy, verify the checks,
# decompose the construction modules without the checks, and certify both;
# a graph loads scipy on its first uncut or long search (metric.dijkstra)
_PARSER = ["coarsecert.cli", "coarsecert.errors"]
_READER = _PARSER + ["coarsecert.jsonio", "coarsecert.metric", "coarsecert.simplex", "numpy"]
_CHECKER = _READER + ["coarsecert.verify"]
_DECOMPOSER = _READER + ["coarsecert.construct", "coarsecert.covers"]
_CERTIFIER = _DECOMPOSER + ["coarsecert.extend", "coarsecert.verify"]


@pytest.fixture(scope="module")
def l1_cloud_artifacts(tmp_path_factory):
    """A 10 x 10 integer grid under l1, with its tree and certificate: exact sums."""
    d = tmp_path_factory.mktemp("l1cloud")
    coords = [[float(x), float(y)] for x in range(10) for y in range(10)]
    jsonio.save_json(d / "cloud.json", jsonio.space_to_json("points", 100, {"coords": coords, "p": 1}))
    assert run("decompose", "--space", d / "cloud.json", "--strategy", "greedy",
               "--R", 49, "--diam", 80, "--out", d / "cloud.tree.json") == 0
    assert run("certify", "--space", d / "cloud.json", "--tree", d / "cloud.tree.json",
               "--epsilon", 0.7, "--modulus", "linear:2.5", "--out", d / "cloud") == 0
    return d


@pytest.fixture(scope="module")
def wide_artifacts(tmp_path_factory):
    """A 1500-point unit path and the pou of its 3-point blocks: every search is short."""
    d = tmp_path_factory.mktemp("wide")
    edges = [[x, x + 1, 1.0] for x in range(1499)]
    jsonio.save_json(d / "wide.json", jsonio.space_to_json("graph", 1500, edges))
    entries = {str(x): [[f"0:{x // 3}", 1.0]] for x in range(1500)}
    jsonio.save_json(d / "wide.pou.json", {"v": 1, "space": "wide.json", "entries": entries})
    return d


@pytest.mark.parametrize("args, code, loaded", [
    (["--help"], 0, _PARSER),
    (["verify", "--space"], 2, _PARSER),  # an argparse error
    (["generate", "--kind", "path", "--n", "5", "--out", "p5.json"], 0, _READER),
    (["verify", "--space", "space.json", "--pou", "cert.pou.json", "--epsilon", "0.8"], 0,
     _CHECKER),
    (["verify", "--space", "wide.json", "--pou", "wide.pou.json", "--lam", "1", "--C", "1"], 0,
     _CHECKER),
    (["decompose", "--space", "space.json", "--strategy", "bricks", "--R", "10",
      "--block-scale", "11", "--out", "t.json"], 0, _DECOMPOSER + ["scipy"]),
    (["certify", "--space", "space.json", "--tree", "tree.json", "--epsilon", "0.8",
      "--modulus", "linear:2", "--out", "c"], 0, _CERTIFIER + ["scipy"]),
    (["decompose", "--space", "cloud.json", "--strategy", "greedy", "--R", "49",
      "--diam", "80", "--out", "t.json"], 0, _DECOMPOSER),
    (["certify", "--space", "cloud.json", "--tree", "cloud.tree.json", "--epsilon", "0.7",
      "--modulus", "linear:2.5", "--out", "c"], 0, _CERTIFIER),
    (["verify", "--space", "cloud.json", "--pou", "cloud.pou.json", "--report",
      "cloud.report.json"], 0, _CHECKER),
], ids=["help", "usage-error", "generate", "verify", "wide-verify", "decompose", "certify",
        "l1-cloud-decompose", "l1-cloud-certify", "l1-cloud-verify"])
def test_command_loads_only_its_modules(clean_artifacts, l1_cloud_artifacts, wide_artifacts,
                                        tmp_path, args, code, loaded):
    # the consumer's trusted base: verify runs, and so loads, no construction
    # module; and no process loads numpy or scipy before a command needs them
    for name in ("space.json", "tree.json", "cert.pou.json"):
        shutil.copy(clean_artifacts / name, tmp_path / name)
    for name in ("cloud.json", "cloud.tree.json", "cloud.pou.json", "cloud.report.json"):
        shutil.copy(l1_cloud_artifacts / name, tmp_path / name)
    for name in ("wide.json", "wide.pou.json"):
        shutil.copy(wide_artifacts / name, tmp_path / name)
    env = dict(os.environ, PYTHONPATH=str(Path(coarsecert.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _LOADED, *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == code, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == sorted(loaded)


_EXIT_CODES = pytest.mark.parametrize("args, code", [
    (["verify", "--space", "space.json", "--pou", "cert.pou.json", "--epsilon", "0.8"], 0),
    (["verify", "--space", "space.json", "--pou", "cert.pou.json", "--lam", "0.01",
      "--C", "0.01"], 1),
    (["verify", "--space"], 2),  # an argparse error
    (["verify", "--space", "space.json", "--pou", "missing.json", "--epsilon", "0.8"], 2),
], ids=["pass", "fail", "usage-error", "input-error"])


@_EXIT_CODES
def test_main_leaves_the_collector_as_it_found_it(clean_artifacts, monkeypatch, args, code):
    # tests and the benchmark's tracer call main in-process: only the process
    # entry (run) may freeze the collector
    monkeypatch.chdir(clean_artifacts)
    before = gc.isenabled(), gc.get_freeze_count()
    assert main(args) == code
    assert (gc.isenabled(), gc.get_freeze_count()) == before


# the module run as `python -m coarsecert.cli`, printing last whether the
# collector was frozen when its exit began
_ENTRY = ("import gc, runpy, sys\n"
          "try:\n"
          "    runpy.run_module('coarsecert.cli', run_name='__main__')\n"
          "except SystemExit as exc:\n"
          "    print(gc.get_freeze_count() > 0)\n"
          "    raise")


@_EXIT_CODES
def test_process_entry_freezes_and_keeps_the_exit_code(clean_artifacts, args, code):
    env = dict(os.environ, PYTHONPATH=str(Path(coarsecert.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _ENTRY, *args], cwd=clean_artifacts, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == code, proc.stderr
    assert proc.stdout.splitlines()[-1] == "True"
    assert "Traceback" not in proc.stderr


class TestLazyNamespace:
    def test_names_resolve_to_their_home(self):
        for name in coarsecert.__all__:
            home = importlib.import_module(f"coarsecert.{coarsecert._HOMES[name]}")
            assert getattr(coarsecert, name) is getattr(home, name), name

    def test_star_import(self):
        ns = {}
        exec("from coarsecert import *", ns)
        assert all(ns[name] is getattr(coarsecert, name) for name in coarsecert.__all__)
        assert ns["paste"].__module__ == "coarsecert.extend"

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            coarsecert.no_such_name
