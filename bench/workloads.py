"""Seeded inputs and command lines for the three benchmark workloads.

Every input is written here, from the seed alone; the benchmark never asks
`coarsecert` to build one.  Seed 0 reproduces the baseline configurations
(unit-weight paths, 3-point blocks).  Any other seed draws integer path edge
weights from {1, 2} for the certificate lanes and block lengths from
{2, 3, 4} for `verify-wide`.  The same seed gives byte-identical files.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

EPSILON = "0.2"
BRICK_R = "159"
BLOCK_SCALE = "160"
MODULUS = "linear:4"

SPACE_FILE = "space.json"
TREE_FILE = "tree.json"
CERT_PREFIX = "cert"
WIDE_POU_FILE = "wide.pou.json"
VERIFY_FILE = "verify.json"


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    lane: str          # "certificate": decompose, certify, verify; "consumer": verify only
    verify_mode: str   # mode of the final `verify` command


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload("dense-p2000", 2000, "certificate", "full"),
        Workload("tablefree-p6000", 6000, "certificate", "restricted"),
        Workload("verify-wide", 1500, "consumer", "full"),
    )
}


def dumps(obj) -> str:
    """Canonical JSON text, the same layout `coarsecert` writes."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def path_weights(n: int, seed: int) -> List[float]:
    """Edge weights of an n-point path: all 1 for seed 0, else drawn from {1, 2}."""
    if seed == 0:
        return [1.0] * (n - 1)
    rng = random.Random(seed)
    return [float(1 + rng.getrandbits(1)) for _ in range(n - 1)]


def block_lengths(n: int, seed: int) -> List[int]:
    """Consecutive block lengths covering n points: 3s for seed 0, else from {2, 3, 4}.

    The last block is cut short where the path ends.
    """
    rng = random.Random(seed)
    out: List[int] = []
    left = n
    while left > 0:
        b = 3 if seed == 0 else rng.choice((2, 3, 4))
        out.append(min(b, left))
        left -= out[-1]
    return out


def path_space(weights: List[float], seed: int) -> dict:
    """A graph space file for a path; seed 0 matches `coarsecert generate --kind path`."""
    n = len(weights) + 1
    return {"v": 1, "kind": "graph", "n": n,
            "data": [[i, i + 1, w] for i, w in enumerate(weights)],
            "meta": {"generator": "path", "grid_shape": [n], "seed": seed}}


def block_pou(blocks: List[int]) -> dict:
    """The barycentric pou of a cover by disjoint blocks: block k is vertex 0:k."""
    entries = {}
    x = 0
    for k, b in enumerate(blocks):
        for _ in range(b):
            entries[str(x)] = [[f"0:{k}", 1.0]]
            x += 1
    return {"v": 1, "space": SPACE_FILE, "entries": entries}


@dataclass
class Inputs:
    """What the generator wrote, kept so the oracle can check against it."""
    weights: List[float]
    blocks: List[int]     # verify-wide only


def write_inputs(workload: Workload, seed: int, directory: Path, n: int = 0) -> Inputs:
    """Write the workload's input files into directory; n overrides the size."""
    n = n or workload.n
    if workload.lane == "certificate":
        weights = path_weights(n, seed)
        blocks: List[int] = []
    else:
        weights = [1.0] * (n - 1)
        blocks = block_lengths(n, seed)
        (directory / WIDE_POU_FILE).write_text(dumps(block_pou(blocks)), encoding="utf-8")
    (directory / SPACE_FILE).write_text(dumps(path_space(weights, seed)), encoding="utf-8")
    return Inputs(weights, blocks)


def decompose_args() -> List[str]:
    return ["decompose", "--space", SPACE_FILE, "--strategy", "bricks",
            "--R", BRICK_R, "--block-scale", BLOCK_SCALE, "--out", TREE_FILE]


def certify_args() -> List[str]:
    return ["certify", "--space", SPACE_FILE, "--tree", TREE_FILE,
            "--epsilon", EPSILON, "--modulus", MODULUS, "--schedule", "conservative",
            "--workers", "1", "--out", CERT_PREFIX]


def verify_args(workload: Workload, bound: float) -> List[str]:
    """The final consumer `verify`; bound is the certificate's or the block bound."""
    if workload.lane == "certificate":
        pou, claim = f"{CERT_PREFIX}.pou.json", ["--epsilon", EPSILON]
    else:
        pou, claim = WIDE_POU_FILE, ["--lam", "1", "--C", "1"]
    return ["verify", "--space", SPACE_FILE, "--pou", pou, *claim, "--M", repr(float(bound)),
            "--mode", workload.verify_mode, "--workers", "1", "--out", VERIFY_FILE]
