"""Independent checks of the benchmark's outputs.

Nothing here imports `coarsecert`.  Every workload runs on a path, so the
distance between points i < j is a difference of prefix sums of the edge
weights the generator drew, and artifacts are read as plain JSON.

Tolerances: weights must sum to 1 within SUM_TOL; a pair passes the
Lipschitz test when its slack is at least -SLACK_TOL; a star diameter may
exceed the claimed bound by at most SLACK_TOL; a reported worst slack or
tight bound must match the recomputed one within MATCH_TOL.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

SUM_TOL = 1e-9
SLACK_TOL = 1e-9
MATCH_TOL = 1e-9

Weights = Dict[str, float]


class Checks:
    """An ordered list of named pass/fail outcomes."""

    def __init__(self):
        self.results: List[Tuple[str, bool, str]] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.results.append((name, bool(ok), detail))
        return bool(ok)

    @property
    def failed(self) -> List[Tuple[str, bool, str]]:
        return [r for r in self.results if not r[1]]


def prefix_sums(weights: List[float]) -> List[float]:
    out = [0.0]
    for w in weights:
        out.append(out[-1] + w)
    return out


def pou_points(pou_obj: dict) -> Dict[int, Weights]:
    """point id -> {vertex key: weight} from a pou file object."""
    return {int(x): {vk: float(w) for vk, w in pairs}
            for x, pairs in pou_obj["entries"].items()}


def l1(u: Weights, v: Weights) -> float:
    total = 0.0
    for k, x in u.items():
        total += abs(x - v.get(k, 0.0))
    for k, y in v.items():
        if k not in u:
            total += y
    return total


def slack_minima(prefix: List[float], pts: Dict[int, Weights], eps: float,
                 restricted_radius: Optional[float]):
    """(global min slack, min slack over d < restricted_radius, pairs in that radius).

    Pairs at distance d have slack >= eps*d + eps - L, with L the largest
    possible l1 distance (twice the largest weight sum).  Each row of the scan
    therefore stops once that lower bound can no longer beat the minimum
    found so far, but never before L/eps - 1 (the restricted radius widened
    for the sum tolerance) or the reported restricted radius: every pair
    inside both is checked.
    """
    n = len(prefix)
    L = 2.0 * max(sum(w.values()) for w in pts.values())
    widened = max(L / eps - 1.0, restricted_radius or 0.0)
    best = math.inf
    best_restricted = math.inf
    restricted_pairs = 0
    for i in range(n):
        fi = pts[i]
        for j in range(i + 1, n):
            d = prefix[j] - prefix[i]
            if d > widened and eps * d + eps - L >= best:
                break
            s = eps * d + eps - l1(fi, pts[j])
            if s < best:
                best = s
            if restricted_radius is not None and d < restricted_radius:
                restricted_pairs += 1
                if s < best_restricted:
                    best_restricted = s
    return best, best_restricted, restricted_pairs


def star_diameters(prefix: List[float], pts: Dict[int, Weights]) -> Dict[str, float]:
    """vertex -> diameter of the points that put positive weight on it."""
    lo: Dict[str, int] = {}
    hi: Dict[str, int] = {}
    for x in sorted(pts):
        for vk, w in pts[x].items():
            if w > 0:
                lo.setdefault(vk, x)
                hi[vk] = x
    return {vk: prefix[hi[vk]] - prefix[lo[vk]] for vk in lo}


def _close(a, b) -> bool:
    return isinstance(a, (int, float)) and abs(float(a) - float(b)) <= MATCH_TOL


def check_certificate(checks: Checks, weights: List[float], eps: float, pou_obj: dict,
                      cert_report: dict, verify_obj: dict) -> None:
    """Check a certify run and its consumer verify against path distances."""
    prefix = prefix_sums(weights)
    n = len(prefix)
    pts = pou_points(pou_obj)
    covered = checks.check("pou covers every point", sorted(pts) == list(range(n)),
                           f"{len(pts)} of {n} points")
    bad = [x for x, w in pts.items()
           if not w or any(not (v > 0 and math.isfinite(v)) for v in w.values())
           or abs(sum(w.values()) - 1.0) > SUM_TOL]
    checks.check("weights positive and sum to 1", not bad, f"first bad point {bad[:1]}")
    if not covered:
        return

    lip = cert_report["lipschitz"]
    worst, worst_restricted, restricted_pairs = slack_minima(
        prefix, pts, eps, lip.get("restricted_radius"))
    checks.check("every pair meets l1 <= eps*d + eps", worst >= -SLACK_TOL,
                 f"min slack {worst!r}")
    claimed = lip["restricted_radius"] is not None
    expected = worst_restricted if claimed else worst
    checks.check("certify worst_slack matches", _close(lip["worst_slack"], expected),
                 f"reported {lip['worst_slack']!r}, oracle {expected!r}")
    checks.check("certify pairs_checked matches",
                 lip["pairs_checked"] == (restricted_pairs if claimed else n * (n - 1) // 2),
                 f"reported {lip['pairs_checked']}, oracle {restricted_pairs}")
    diams = star_diameters(prefix, pts)
    tight = max(diams.values())
    checks.check("star diameters within the reported bound",
                 tight <= cert_report["bound"] + SLACK_TOL,
                 f"max star diameter {tight!r}, bound {cert_report['bound']!r}")
    checks.check("certify tight_bound matches", _close(cert_report["cobounded"]["tight_bound"], tight),
                 f"reported {cert_report['cobounded']['tight_bound']!r}, oracle {tight!r}")
    checks.check("certify verdict PASS", cert_report["pass"] is True)

    reports = {r["check"]: r for r in verify_obj["reports"]}
    vlip, vcob = reports.get("lipschitz", {}), reports.get("cobounded", {})
    vexpected = worst_restricted if vlip.get("restricted_radius") is not None else worst
    checks.check("verify verdict PASS", vlip.get("pass") is True and vcob.get("pass") is True)
    checks.check("verify worst_slack matches", _close(vlip.get("worst_slack"), vexpected),
                 f"reported {vlip.get('worst_slack')!r}, oracle {vexpected!r}")
    checks.check("verify tight_bound matches", _close(vcob.get("tight_bound"), tight),
                 f"reported {vcob.get('tight_bound')!r}, oracle {tight!r}")


def check_wide(checks: Checks, blocks: List[int], verify_obj: dict) -> None:
    """Closed-form answers for full-mode (1, 1) verify of a disjoint-block pou.

    Points in one block share a vertex (l1 = 0); points in different blocks
    have l1 = 2, so slack d - 1 is 0 exactly at block boundaries, first at
    the pair straddling the first one.  A block of b points has diameter b - 1.
    """
    n = sum(blocks)
    reports = {r["check"]: r for r in verify_obj["reports"]}
    lip, cob = reports.get("lipschitz", {}), reports.get("cobounded", {})
    checks.check("verify verdict PASS", lip.get("pass") is True and cob.get("pass") is True)
    checks.check("worst slack is 0", _close(lip.get("worst_slack"), 0.0),
                 f"reported {lip.get('worst_slack')!r}")
    first = [blocks[0] - 1, blocks[0]]
    checks.check("witness at the first block boundary", lip.get("witness") == first,
                 f"reported {lip.get('witness')!r}, expected {first}")
    checks.check("pairs_checked is n(n-1)/2", lip.get("pairs_checked") == n * (n - 1) // 2,
                 f"reported {lip.get('pairs_checked')!r}")
    checks.check("tight bound is the longest block minus 1",
                 _close(cob.get("tight_bound"), max(blocks) - 1),
                 f"reported {cob.get('tight_bound')!r}, expected {max(blocks) - 1}")
