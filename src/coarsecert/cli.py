"""Batch CLI: generate spaces, decompose, certify, verify.

Exit codes: 0 for pass, 1 for a verification failure, 2 for usage or input
errors, so CI pipelines can gate on certificates.  All randomness sits
behind one seeded generator whose seed is recorded in the output metadata;
the same command line reproduces byte-identical files.

Each command loads only the modules it runs: `generate` and `verify` never
load the construction modules `covers` and `extend`, and `decompose` never
loads `extend`.  Their functions are bound here to forwarders that import
on first call, not imported inside each command, because the benchmark's
tracer (bench/tracer.layer_patches) wraps these names in this module's
namespace; they become local imports once the tracer moves (ROADMAP.md,
item 1a).
"""

from __future__ import annotations

import argparse
import importlib
import sys
from typing import List, Optional

import numpy as np

from . import jsonio
from .errors import (CoarseCertError, ConstructionFailedError, InvalidInputError,
                     ScheduleMismatchError, UnderflowError_, VerificationFailedError)
from .verify import cobounded_check, lipschitz_check


def _forward(home: str, name: str):
    """A stand-in for coarsecert.<home>.<name> that imports home when called."""
    def call(*args, **kwargs):
        return getattr(importlib.import_module(f".{home}", __package__), name)(*args, **kwargs)
    call.__name__ = call.__qualname__ = name
    return call


brick_tree = _forward("covers", "brick_tree")
greedy_tree = _forward("covers", "greedy_tree")
tree_validate = _forward("covers", "tree_validate")
build_certificate = _forward("extend", "build_certificate")
parse_modulus = _forward("extend", "parse_modulus")


def _generate_space(args) -> dict:
    kind = args.kind
    seed = int(args.seed)
    meta = {"generator": kind, "seed": seed}
    if kind == "path":
        n = int(args.n)
        edges = [[i, i + 1, 1.0] for i in range(n - 1)]
        meta["grid_shape"] = [n]
        return jsonio.space_to_json("graph", n, edges, meta)
    if kind == "grid":
        w, h = int(args.width), int(args.height)
        edges = []
        for x in range(w):
            for y in range(h):
                pid = x * h + y
                if x + 1 < w:
                    edges.append([pid, pid + h, 1.0])
                if y + 1 < h:
                    edges.append([pid, pid + 1, 1.0])
        meta["grid_shape"] = [w, h]
        return jsonio.space_to_json("graph", w * h, edges, meta)
    if kind == "tree-graph":
        n = int(args.n)
        rng = np.random.default_rng(seed)
        edges = [[int(rng.integers(0, i)), i, 1.0] for i in range(1, n)]
        return jsonio.space_to_json("graph", n, edges, meta)
    if kind == "random-geometric":
        n = int(args.n)
        radius = float(args.radius)
        rng = np.random.default_rng(seed)
        coords = rng.random((n, 2))
        edges = []
        for i in range(n):
            d = np.sqrt(((coords[i + 1:] - coords[i]) ** 2).sum(axis=1))
            for j in np.flatnonzero(d <= radius):
                edges.append([i, int(i + 1 + j), float(d[j])])
        meta["radius"] = radius
        return jsonio.space_to_json("graph", n, edges, meta)
    raise CoarseCertError(f"unknown generator kind {args.kind!r}")


def cmd_generate(args) -> int:
    obj = _generate_space(args)
    jsonio.space_from_json(obj)  # validates (metric axioms, connectivity)
    jsonio.save_json(args.out, obj)
    print(f"wrote space ({obj['kind']}, n={obj['n']}) to {args.out}")
    return 0


def cmd_decompose(args) -> int:
    space = jsonio.load_space(args.space)
    if args.strategy == "greedy":
        tree = greedy_tree(space, float(args.R), float(args.diam))
    else:
        tree = brick_tree(space, [float(args.R)], float(args.block_scale))
    check = tree_validate(space, tree)
    if not check.passed:
        raise ConstructionFailedError(
            f"tree failed validation: clause {check.failed_clause}, {check.witness}",
            check.to_json())
    jsonio.save_json(args.out, jsonio.tree_to_json(tree))
    print(f"wrote depth-{tree.m} tree ({len(tree.nodes)} nodes, "
          f"leaf bound {check.leaf_bound:g}) to {args.out}")
    return 0


def _check_workers(args) -> None:
    """Reject --workers below 1 and otherwise ignore it: every check runs serially.

    The flag stays, hidden, only because the benchmark's command lines still
    pass --workers 1; it goes once they drop it (ROADMAP.md, item 1).
    """
    if args.workers < 1:
        raise InvalidInputError(f"workers must be >= 1, got {args.workers!r}")


def cmd_certify(args) -> int:
    modulus = parse_modulus(args.modulus)  # before the space's validation
    space = jsonio.load_space(args.space)
    tree = jsonio.load_tree(args.tree)
    out = args.out
    _check_workers(args)
    try:
        result = build_certificate(
            space, tree, float(args.epsilon), modulus,
            schedule_mode=args.schedule)
    except VerificationFailedError as exc:
        if exc.report is not None:
            jsonio.save_json(f"{out}.report.json", jsonio.report_to_json(exc.report))
        print(f"certificate verification FAILED: {exc}", file=sys.stderr)
        return 1
    except (InvalidInputError, ScheduleMismatchError, UnderflowError_) as exc:
        exc.args = (f"{args.tree}: {exc}",)  # the tree fails validation or the budgets
        raise
    jsonio.save_json(f"{out}.pou.json", jsonio.pou_to_json(result.pou, space_ref=str(args.space)))
    jsonio.save_json(f"{out}.report.json", jsonio.report_to_json(result.report_json()))
    jsonio.save_json(f"{out}.schedule.json", jsonio.report_to_json(result.schedule.to_json()))
    lip = result.lipschitz
    print(f"certificate PASS: epsilon={args.epsilon}, worst_slack={lip.worst_slack:.6g}, "
          f"bound={result.bound:g}, pairs={lip.pairs_checked}")
    return 0


def _claims(args):
    """(lam, C, M) from the flags, with --report filling in those not given."""
    lam, c, m = args.lam, args.C, args.M
    if args.epsilon is not None:
        for flag, given in (("--lam", args.lam), ("--C", args.C)):
            if given is not None and given != args.epsilon:
                raise CoarseCertError(
                    f"{flag} {given!r} disagrees with --epsilon {args.epsilon!r}, "
                    f"which claims lam = C = epsilon")
        lam = c = args.epsilon
    if args.report is not None:
        eps, bound = jsonio.load_claims(args.report)
        for flag, given, claimed in (("--epsilon", args.epsilon, eps), ("--lam", args.lam, eps),
                                     ("--C", args.C, eps), ("--M", args.M, bound)):
            if given is not None and given != claimed:
                raise CoarseCertError(
                    f"{flag} {given!r} disagrees with {args.report}, which claims {claimed!r}")
        lam = c = eps
        m = bound
    if lam is None or c is None:
        raise CoarseCertError("verify needs --epsilon, --report or both --lam and --C")
    return float(lam), float(c), m


def cmd_verify(args) -> int:
    lam, c, m = _claims(args)
    space = jsonio.load_space(args.space)
    pou = jsonio.load_pou(args.pou, space)
    if len(pou.domain) != space.n:
        missing = np.flatnonzero(~np.isin(np.arange(space.n), pou.domain.ids))[0]
        raise VerificationFailedError(f"pou does not cover point {missing}")
    _check_workers(args)
    reports = []
    lip = lipschitz_check(pou, lam, c, mode=args.mode)
    reports.append(lip.to_json())
    ok = lip.passed
    if m is not None:
        cob = cobounded_check(pou, float(m))
        reports.append(cob.to_json())
        ok = ok and cob.passed
    if args.out:
        jsonio.save_json(args.out, {"v": 1, "reports": reports})
    for rep in reports:
        print(f"{rep['check']}: {'PASS' if rep['pass'] else 'FAIL'}")
    return 0 if ok else 1


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="coarsecert")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a space file")
    g.add_argument("--kind", required=True,
                   choices=["path", "grid", "tree-graph", "random-geometric"])
    g.add_argument("--n", type=int, default=0)
    g.add_argument("--width", type=int, default=0)
    g.add_argument("--height", type=int, default=0)
    g.add_argument("--radius", type=float, default=0.1)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_generate)

    d = sub.add_parser("decompose", help="decompose a space into a tree")
    d.add_argument("--space", required=True)
    d.add_argument("--strategy", required=True, choices=["greedy", "bricks"])
    d.add_argument("--R", type=float, required=True)
    d.add_argument("--diam", type=float, default=0.0)
    d.add_argument("--block-scale", dest="block_scale", type=float, default=0.0)
    d.add_argument("--out", required=True)
    d.set_defaults(func=cmd_decompose)

    c = sub.add_parser("certify", help="build and verify a certificate")
    c.add_argument("--space", required=True)
    c.add_argument("--tree", required=True)
    c.add_argument("--epsilon", type=float, required=True)
    c.add_argument("--modulus", default="paper")
    c.add_argument("--schedule", default="conservative", choices=["conservative", "paper"])
    c.add_argument("--workers", type=int, default=1, help=argparse.SUPPRESS)
    c.add_argument("--out", required=True, help="output path prefix")
    c.set_defaults(func=cmd_certify)

    v = sub.add_parser("verify", help="verify a pou file against claims")
    v.add_argument("--space", required=True)
    v.add_argument("--pou", required=True)
    v.add_argument("--epsilon", type=float, default=None)
    v.add_argument("--lam", type=float, default=None)
    v.add_argument("--C", type=float, default=None)
    v.add_argument("--M", type=float, default=None)
    v.add_argument("--report", default=None,
                   help="certificate report whose epsilon and bound are the claims "
                        "to check where --epsilon / --M are not given")
    v.add_argument("--mode", default="full", choices=["full", "restricted"])
    v.add_argument("--workers", type=int, default=1, help=argparse.SUPPRESS)
    v.add_argument("--out", default=None)
    v.set_defaults(func=cmd_verify)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    ap = make_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except VerificationFailedError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except CoarseCertError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
