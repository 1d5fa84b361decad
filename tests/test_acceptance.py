"""Acceptance suite: nine criteria, one pass/fail line each.

Every expected value here is either frozen from an independent oracle
computed inside the test (brute-force enumeration, rational arithmetic,
direct composition) or asserted through the verify module, which recomputes
every property from scratch.  Criteria 8 and 9 reuse the scenario-1
artifacts, so the suite builds them once per session through the CLI.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from coarsecert import jsonio
from coarsecert.cli import main as cli_main
from coarsecert.covers import brick_tree, greedy_decomposition, net_ball_levels, point_finite_transform
from coarsecert.extend import Modulus, budget_schedule, default_modulus, extend_pou, measured_bound, paste
from coarsecert.metric import PointSubset
from coarsecert.construct import (
    VertexMint,
    lebesgue_check,
    multiplicity,
    r_disjoint_check,
    uniformly_bounded_check,
)
from coarsecert.verify import cobounded_check, lipschitz_check
from .conftest import grid_space, path_space, rgg_space
from .genutil import (
    min_gap_pair,
    perturb_weight,
    random_lipschitz_pou,
    random_subset,
    smallest_weight_vertex,
)
from .test_extend import dummy_tree


def report(num, desc, ok):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def run_cli(*args):
    return cli_main([str(a) for a in args])


# ---------------------------------------------------------------------------
# scenario fixtures (built once, reused by criteria 8 and 9)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def scenario1(tmp_path_factory):
    d = tmp_path_factory.mktemp("scenario1")
    space = d / "p2000.json"
    tree = d / "tree.json"
    assert run_cli("generate", "--kind", "path", "--n", 2000, "--out", space) == 0
    assert run_cli("decompose", "--space", space, "--strategy", "bricks",
                   "--R", 159, "--block-scale", 160, "--out", tree) == 0
    t0 = time.monotonic()
    code = run_cli("certify", "--space", space, "--tree", tree,
                   "--epsilon", 0.2, "--modulus", "linear:4",
                   "--schedule", "conservative", "--out", d / "cert")
    elapsed = time.monotonic() - t0
    rep = json.loads((d / "cert.report.json").read_text())
    return {"dir": d, "space": space, "tree": tree, "exit": code,
            "elapsed": elapsed, "report": rep}


@pytest.fixture(scope="session")
def scenario2_instances():
    """100 verified (delta, delta)-Lipschitz pous on subsets of P100, extended."""
    p100 = path_space(100)
    E = default_modulus()
    mint = VertexMint()
    out = []
    for i in range(100):
        eps = 0.5 if i < 50 else 1.0
        delta = E(eps)
        rng = np.random.default_rng(20_000 + i)
        a = random_subset(100, int(rng.integers(34, 70)), rng)
        f = random_lipschitz_pou(p100, a.ids, delta, rng, n_vertices=4)
        g = extend_pou(f, eps, mint=mint)  # input check on: instances must meet the gate
        out.append({"space": p100, "eps": eps, "delta": delta, "A": a,
                    "f": f, "g": g})
    return out


@pytest.fixture(scope="session")
def scenario3_instances():
    """100 verified pasting instances with disjoint carriers and a shared bound."""
    spaces = [path_space(200), grid_space(15, 15), rgg_space(150, 0.2, 42)]
    out = []
    for i in range(100):
        space = spaces[i % 3]
        rng = np.random.default_rng(30_000 + i)
        eps = float(rng.uniform(0.4, 1.2))
        r = 4.0 / eps * float(rng.uniform(1.0, 2.0))
        delta = 0.9 * min(eps / 3 - 2 / (3 * r), eps / (4 * r + 7), 0.05)
        a = random_subset(space.n, int(rng.integers(20, space.n // 3)), rng)
        f = random_lipschitz_pou(space, a.ids, delta, rng, n_vertices=4, namespace=1)
        g = random_lipschitz_pou(space, range(space.n), delta, rng, n_vertices=4,
                                 namespace=2)
        m_common = max(measured_bound(f), measured_bound(g))
        h = paste(f, g, r, eps, delta)  # input checks on
        out.append({"space": space, "eps": eps, "r": r, "delta": delta,
                    "f": f, "g": g, "h": h, "M": m_common})
    return out


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_1_certificate_pipeline(scenario1):
    rep = scenario1["report"]
    lip = rep["lipschitz"]
    ok = (
        scenario1["exit"] == 0
        and rep["pass"] is True
        and lip["restricted_radius"] == pytest.approx(2.0 / 0.2 - 1.0)
        and lip["worst_slack"] >= -1e-9
        and rep["branch_counts"]["branch1"] > 0
        and rep["branch_counts"]["branch2"] > 0
        and scenario1["elapsed"] < 60.0
    )
    report(1, f"P2000 pipeline exit={scenario1['exit']} "
              f"slack={lip['worst_slack']:.4g} branches={rep['branch_counts']} "
              f"runtime={scenario1['elapsed']:.1f}s", ok)


def test_criterion_2_extension_constant(scenario2_instances):
    assert len(scenario2_instances) == 100
    assert any(inst["eps"] == 1.0 for inst in scenario2_instances)
    # delta values are the sharp modulus constants: eps=1 gives exactly 1/39
    sample = next(inst for inst in scenario2_instances if inst["eps"] == 1.0)
    assert sample["delta"] == 1.0 / 39.0
    passes = sum(
        lipschitz_check(inst["g"], inst["eps"], inst["eps"], mode="full").worst_slack
        >= -1e-9
        for inst in scenario2_instances
    )
    report(2, f"extension at sharp constants: {passes}/100 full-mode passes",
           passes == 100)


def test_criterion_3_pasting_bound(scenario3_instances):
    assert len(scenario3_instances) == 100
    good = 0
    for inst in scenario3_instances:
        eps, r, m = inst["eps"], inst["r"], inst["M"]
        lip_ok = lipschitz_check(inst["h"], eps, eps, mode="full").worst_slack >= -1e-9
        cob_ok = measured_bound(inst["h"]) <= m + 2 * r + 2 + 1e-9
        good += lip_ok and cob_ok
    report(3, f"pasting bound: {good}/100 pass Lipschitz and M+2r+2", good == 100)


def test_criterion_4_restricted_oracle_equivalence(p200, grid20):
    cases = 0
    agree = True
    for si, space in enumerate((p200, grid20)):
        for i in range(25):
            rng = np.random.default_rng(40_000 + 100 * si + i)
            delta = float(rng.choice([0.05, 0.2, 0.6, 1.5]))
            f = random_lipschitz_pou(space, range(space.n), delta, rng,
                                     n_vertices=int(rng.integers(3, 7)))
            pts, _, mat = f.dense()
            dsub = np.stack([space.row(x)[pts] for x in pts])
            for eps in (0.1, 0.5, 1.0):
                full = lipschitz_check(f, eps, eps, mode="full")
                rest = lipschitz_check(f, eps, eps, mode="restricted")
                cases += 1
                # independent oracle: dense evaluation over the near pairs
                radius = 2.0 / eps - 1.0
                ii, jj = np.nonzero(np.triu(dsub < radius, k=1))
                if len(ii) == 0:
                    oracle = math.inf
                else:
                    l1 = np.abs(mat[ii] - mat[jj]).sum(axis=1)
                    oracle = float((eps * dsub[ii, jj] + eps - l1).min())
                agree &= full.passed == rest.passed
                agree &= rest.worst_slack == oracle
    report(4, f"restricted/full equivalence on {cases} checks", agree and cases == 150)


def test_criterion_5_cover_transform(p20):
    good = 0
    total = 0
    # the two-level interval instance, frozen by hand enumeration
    levels = [[PointSubset(tuple(range(0, 4))), PointSubset(tuple(range(10, 14)))],
              [PointSubset(tuple(range(4, 10))), PointSubset(tuple(range(14, 20)))]]
    instances = [(p20, levels, 1.0)]
    # generated instances: closed-ball nets around arithmetic progressions
    configs = [
        (60, 4, 3, 1.0), (60, 4, 6, 2.0), (60, 6, 4, 1.0), (60, 8, 10, 2.0),
        (90, 4, 4, 2.0), (90, 6, 6, 1.0), (90, 6, 8, 2.0), (90, 8, 5, 1.0),
        (120, 4, 3, 1.0), (120, 4, 4, 2.0), (120, 6, 8, 2.0), (120, 8, 8, 1.0),
        (150, 4, 6, 2.0), (150, 6, 6, 1.0), (150, 8, 10, 2.0), (150, 8, 5, 1.0),
        (60, 6, 6, 2.0), (90, 4, 6, 2.0), (60, 8, 5, 1.0),
    ]
    for n, g, r, s in configs:
        sp = path_space(n, meta=False)
        net = list(range(g // 2, n, g))
        if net[-1] + r < n - 1:
            net.append(n - 1)
        instances.append((sp, net_ball_levels(sp, net, float(r)), s))
    # scaled two-level block instance
    sp40 = path_space(40, meta=False)
    b = lambda lo, hi: PointSubset(tuple(range(2 * lo, 2 * hi + 2)))
    instances.append((sp40, [[b(0, 3), b(10, 13)], [b(4, 9), b(14, 19)]], 2.0))

    assert len(instances) == 21  # the frozen example plus 20 generated
    for sp, lvls, s in instances:
        total += 1
        bound_in = uniformly_bounded_check(
            sp, [m for level in lvls for m in level]).bound
        fam = point_finite_transform(sp, lvls, s)
        ok = (lebesgue_check(sp, fam, s).passed
              and multiplicity(sp, fam).maximum <= len(lvls)
              and uniformly_bounded_check(sp, fam).bound <= bound_in + 2 * s + 1e-9)
        good += ok
    report(5, f"cover transform guarantees: {good}/{total} instances", good == total)


def test_criterion_6_decomposition_shape(p100):
    ok = True
    # interval spaces: exactly two families
    for n, r, b in ((100, 10.0, 11.0), (500, 20.0, 21.0)):
        sp = path_space(n)
        tree = brick_tree(sp, [r], b)
        fams = tree.root.families
        ok &= len(fams) == 2
        for fam in fams:
            members = [tree.node(c).members for c in fam]
            ok &= r_disjoint_check(sp, members, r).passed
        leaves = [nd.members for nd in tree.nodes if nd.level == 2]
        ok &= uniformly_bounded_check(sp, leaves).bound <= b
    # planar grids: exactly three families
    for (w, h), r, b in (((20, 20), 3.0, 8.0), ((24, 16), 4.0, 12.0)):
        sp = grid_space(w, h)
        tree = brick_tree(sp, [r], b)
        fams = tree.root.families
        ok &= len(fams) == 3
        for fam in fams:
            members = [tree.node(c).members for c in fam]
            ok &= r_disjoint_check(sp, members, r).passed
    fams = greedy_decomposition(p100, R=2.0, target_diam=4.0)
    ok &= len(fams) == 2
    report(6, "interval trees 2 families, grid trees 3, greedy P100 2", ok)


def test_criterion_7_schedule_arithmetic():
    E = default_modulus()
    sch = budget_schedule(dummy_tree((2, 3)), 1.0, Modulus("linear", c=2.0))
    ok = sch.N == (0, 2, 6) and sch.P == (6, 3, 1)
    # rational oracle: E(1) = 1/39 exactly
    ok &= Fraction(1) ** 2 / (32 + 7 * Fraction(1)) == Fraction(1, 39)
    ok &= E(1.0) == 1.0 / 39.0
    e2_composed = E(E(1.0))
    ok &= abs(e2_composed - float(Fraction(1, 48945))) < 1e-12
    paper = budget_schedule(dummy_tree((2,)), 1.0, E, "paper")
    ok &= paper.N == (0, 2)
    ok &= abs(paper.R_required[1] - (2.0 / e2_composed - 1.0)) <= 1e-9
    report(7, f"N/P recursions, E(1)=1/39, R2={paper.R_required[1]:.6g}", ok)


def test_criterion_8_verifier_authority(scenario1, scenario2_instances,
                                        scenario3_instances):
    flips = []

    # scenario 1: the built certificate claims (0.2, 0.2) and its formula
    # bound; adding weight at the far end to a vertex whose star touches the
    # near end stretches one star past the bound
    sp = jsonio.load_space(scenario1["space"])
    pou = jsonio.load_pou(scenario1["dir"] / "cert.pou.json", sp)
    bound = scenario1["report"]["bound"]
    assert lipschitz_check(pou, 0.2, 0.2, mode="restricted").passed
    assert cobounded_check(pou, bound).passed
    v_near = next(v for v in sorted(pou.carrier()) if 0 in pou.star_preimage(v))
    bad = perturb_weight(pou, sp.n - 1, v_near)
    flips.append(
        not lipschitz_check(bad, 0.2, 0.2, mode="restricted").passed
        or not cobounded_check(bad, bound).passed
    )

    # scenarios 2 and 3: corrupt the verified (delta, delta) input at the
    # closest pair of its domain; a 0.2 reweighting moves the simplex point
    # by at least (1 - w)/3, past the additive budget at that gap
    for inst in scenario2_instances[::10]:
        f, delta = inst["f"], inst["delta"]
        assert lipschitz_check(f, delta, delta).passed
        x, _, _ = min_gap_pair(inst["space"], inst["A"].ids)
        bad = perturb_weight(f, x, smallest_weight_vertex(f, x))
        flips.append(not lipschitz_check(bad, delta, delta).passed)

    for inst in scenario3_instances[::10]:
        g, delta = inst["g"], inst["delta"]
        assert lipschitz_check(g, delta, delta).passed
        x, _, _ = min_gap_pair(inst["space"], range(inst["space"].n))
        bad = perturb_weight(g, x, smallest_weight_vertex(g, x))
        flips.append(not lipschitz_check(bad, delta, delta).passed)

    report(8, f"corruption flips a check on {sum(flips)}/{len(flips)} artifacts",
           all(flips))


def test_criterion_9_determinism(scenario1):
    d = scenario1["dir"]
    # a repeat of scenario1's command line, and one that adds --workers 4,
    # which is accepted and ignored
    for tag, extra in (("again", ()), ("w4", ("--workers", 4))):
        code = run_cli("certify", "--space", scenario1["space"],
                       "--tree", scenario1["tree"], "--epsilon", 0.2,
                       "--modulus", "linear:4", "--schedule", "conservative",
                       *extra, "--out", d / tag)
        assert code == 0
    base_pou = (d / "cert.pou.json").read_bytes()
    base_rep = (d / "cert.report.json").read_bytes()
    ok = all(
        (d / f"{tag}.pou.json").read_bytes() == base_pou
        and (d / f"{tag}.report.json").read_bytes() == base_rep
        for tag in ("again", "w4")
    )
    report(9, "byte-identical pou and report on a repeat and with --workers 4", ok)
