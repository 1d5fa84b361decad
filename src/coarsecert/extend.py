"""Pasting, extension, and the full certificate pipeline.

The basic move is the alpha-blend h(x) = a(x)*g(x) + (1-a(x))*f(p(x)) with
a(x) = min(dist(x, A)/r, 1) and p the nearest-point retraction onto A: it
extends f exactly on A (a = 0 there performs no arithmetic on f's weights)
and equals g exactly off the open r-neighborhood of A.  With r >= 4/eps and
delta small enough on both inputs the blend is (eps, eps)-Lipschitz, and
with disjoint carriers coboundedness degrades by at most 2r + 2.

On top of the blend sit: single-fresh-vertex extension at r = 8/eps,
bounded-piece extension with its two branches (far pieces get a fresh
constant vertex; near pieces are blended against one, then carrier-retracted),
disjoint family gluing, and the recursive certificate builder with its budget
ladder.  A piece changes the pou only on its own points, so a piece extension
returns a pou over just the piece's points outside the input domain, and the
glue reads nothing else.

build_certificate runs each lemma through one function: a family through
extend_over_disjoint_family, a leaf through extend_over_bounded_piece, and
a near leaf's extension (branch 2) through _blend_fresh, which blends by
_alpha_blend.  paste (_alpha_blend) and extend_pou (_blend_fresh), each
merged with f, are the public forms of the pasting and extension lemmas.
Their tests, acceptance criteria 2 and 3 among them, check the blend
arithmetic that build_certificate runs, but not the precondition checks in
front of it, which build_certificate skips: the ladder asserts them, and
the final verification decides.

The budget ladder composes a modulus E (E(x) < x, non-decreasing): a node at
level i with q families is processed in ascending family order at budgets
E^((q-1)*P(i+1))(u), ..., E^(P(i+1))(u), u, each family glue feeding the next.
Schedules are computed in plain float arithmetic and stop with an underflow
error once a budget drops below 1e-300, so every radius 2/E - 1 they derive
stays finite.

The final verification in build_certificate is mandatory: the verifier, not
the schedule, is the correctness authority.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .construct import (
    VertexMint,
    convex_combine,
    dist_to_set_all,
    nearest_scan,
    r_disjoint_check,
    simplicial_retraction,
)
from .covers import DecompositionTree, TreeNode, tree_validate
from .errors import (
    BadEpsilonError,
    BudgetTooSmallError,
    EmptySetError,
    InvalidInputError,
    NotRDisjointError,
    PreconditionViolatedError,
    ScheduleMismatchError,
    UnderflowError_,
    VerificationFailedError,
)
from .metric import FiniteMetricSpace, PointSubset, diameter
from .simplex import PartitionOfUnity, star_preimage_diameters
from .verify import (
    SLACK_TOL,
    CoboundedReport,
    LipschitzReport,
    cobounded_check,
    lipschitz_check,
)

BUDGET_FLOOR = 1e-300
_REL_TOL = 1e-12


# ---------------------------------------------------------------------------
# moduli and their composition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Modulus:
    """The extension input budget E: eps -> delta, with 0 < E(eps) < eps.

    kind "paper" is E(eps) = eps^2 / (32 + 7*eps), the substitution r = 8/eps
    into the pasting constraint eps/(4r+7); it also satisfies the second
    constraint eps/3 - 2/(3r) = eps/4.  kind "linear" is E(eps) = eps/c with
    c > 1; linear moduli do not satisfy the pasting inequalities but keep
    deep schedules representable, and the verifier stays authoritative.
    """

    kind: str
    c: float = 4.0

    def __post_init__(self):
        if self.kind == "linear":
            if not (1 < self.c < math.inf):  # E(eps) = eps/inf is 0
                raise InvalidInputError(f"linear modulus needs a finite c > 1, got {self.c!r}")
        elif self.kind != "paper":
            raise InvalidInputError(f"unknown modulus kind {self.kind!r}")

    def __call__(self, eps: float) -> float:
        if not (0 < eps < math.inf):
            raise InvalidInputError(f"modulus argument must be positive finite, got {eps!r}")
        if self.kind == "paper":
            out = eps * eps / (32.0 + 7.0 * eps)
        else:
            out = eps / self.c
        if not math.isfinite(out):
            raise InvalidInputError(f"modulus value at {eps!r} overflows to {out!r}")
        return out

    def power(self, eps: float, k: int) -> float:
        """E^k(eps); raises once an iterate drops below BUDGET_FLOOR.

        The floor lies above the smallest normal float, so no iterate that
        passes it has lost precision to underflow.
        """
        if k < 0:
            raise InvalidInputError("composition count must be >= 0")
        if k == 0:
            return float(eps)
        if eps <= 0 or not math.isfinite(eps):
            raise InvalidInputError(f"modulus argument must be positive finite, got {eps!r}")
        x = float(eps)
        cap = 10_000_000
        for _ in range(min(int(k), cap)):
            x = self(x)
            if x < BUDGET_FLOOR:
                raise UnderflowError_(-1, f"E^k({eps!r}) below {BUDGET_FLOOR!r}")
        if k > cap:
            raise InvalidInputError(f"composition count {k} too deep to evaluate")
        return x

    def spec(self) -> str:
        if self.kind == "paper":
            return "paper"
        return f"linear:{self.c:g}"


def default_modulus() -> Modulus:
    """E(eps) = eps^2/(32 + 7*eps): the sharp budget for r = 8/eps pasting."""
    return Modulus(kind="paper")


def parse_modulus(text: str) -> Modulus:
    if text == "paper":
        return Modulus(kind="paper")
    if text.startswith("linear:"):
        try:
            return Modulus(kind="linear", c=float(text.split(":", 1)[1]))
        except (ValueError, InvalidInputError) as exc:
            raise InvalidInputError(f"modulus spec {text!r}: {exc}") from None
    raise InvalidInputError(f"unknown modulus spec {text!r}")


# ---------------------------------------------------------------------------
# budget schedules
# ---------------------------------------------------------------------------

@dataclass
class BudgetSchedule:
    """Composition counts, products, radii, and floor budgets for a tree."""

    epsilon: float
    mode: str
    arity: Tuple[int, ...]
    N: Tuple[int, ...]             # N_1..N_m: N_1 = 0, N_i = prod(n_j, j < i)
    P: Tuple[int, ...]             # P_1..P_m: P_m = 1, P_i = P_{i+1} * n_i
    R_required: Tuple[float, ...]  # R_1..R_m (empty for depth-1 trees)
    bottom: Tuple[float, ...]      # bottom_i = E^(P_1 - P_i)(eps)
    delta_leaf: float
    modulus_spec: str

    def to_json(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "mode": self.mode,
            "modulus": self.modulus_spec,
            "arity": list(self.arity),
            "N": [int(x) for x in self.N],
            "P": [int(x) for x in self.P],
            "R_required": list(self.R_required),
            "bottom": list(self.bottom),
            "delta_leaf": self.delta_leaf,
        }


def budget_schedule(tree: DecompositionTree, epsilon: float, modulus: Modulus,
                    schedule_mode: str = "conservative") -> BudgetSchedule:
    """Compute the budget bookkeeping for a tree at a target slope.

    N and P follow the recursions N_1 = 0, N_i = prod of arities below i, and
    P_m = 1, P_i = P_{i+1} * n_i.  Paper mode sets each radius from
    2/(R_i + 1) = E^(N_i)(eps); conservative mode (the default) sets every
    radius from 2/(R + 1) = E^(P_1)(eps), the uniform bound under which every
    glue in the recursion keeps its budget above 2/(R + 1).
    """
    if not (0.0 < epsilon < 2.0):
        raise BadEpsilonError(f"epsilon must be in (0, 2), got {epsilon!r}")
    if schedule_mode not in ("conservative", "paper"):
        raise InvalidInputError(f"unknown schedule mode {schedule_mode!r}")
    m = tree.m
    arity = tree.arity

    N: List[int] = [0]
    for i in range(2, m + 1):
        prod = 1
        for a in arity[: i - 1]:
            prod *= a
        N.append(prod)
    P: List[int] = [0] * m
    P[m - 1] = 1  # DecompositionTree has m >= 1
    for i in range(m - 2, -1, -1):
        P[i] = P[i + 1] * arity[i]

    def power_at(level: int, k: int) -> float:
        try:
            return modulus.power(epsilon, k)
        except UnderflowError_ as exc:
            raise UnderflowError_(level, exc.detail) from None

    bottom = tuple(power_at(i + 1, P[0] - P[i]) for i in range(m))
    delta_leaf = bottom[-1]

    if m == 1:
        r_required: Tuple[float, ...] = ()
    elif schedule_mode == "conservative":
        r_required = tuple([2.0 / power_at(m, P[0]) - 1.0] * m)
    else:
        r_required = tuple(2.0 / power_at(i, N[i - 1]) - 1.0 for i in range(1, m + 1))

    return BudgetSchedule(
        epsilon=float(epsilon), mode=schedule_mode, arity=arity,
        N=tuple(N), P=tuple(P), R_required=r_required,
        bottom=bottom, delta_leaf=delta_leaf, modulus_spec=modulus.spec(),
    )


# ---------------------------------------------------------------------------
# the nearest-point retraction and set balls
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Retraction:
    """A total map X -> A fixing A pointwise with d(x, p(x)) = dist(x, A).

    dist holds those distances for every x, so a caller needing both the
    nearest point and the distance to A streams A's rows once.
    """

    subset: PointSubset
    mapping: np.ndarray  # mapping[x] = p(x), length n
    dist: np.ndarray     # dist[x] = dist(x, A) = d(x, p(x)), length n

    def __call__(self, x: int) -> int:
        return int(self.mapping[x])


def nearest_point_retraction(space: FiniteMetricSpace, a: PointSubset) -> Retraction:
    """p(x) = smallest-id point of a realizing dist(x, a); fixes a pointwise.

    One scan over a's rows (nearest_scan) gives both the mapping, with the
    smallest id winning ties, and dist(x, a) for every x, returned as the
    retraction's dist field.
    """
    if len(a) == 0:
        raise EmptySetError("retraction onto empty subset")
    dist, mapping = nearest_scan(space, a.ids)
    mapping[a.ids] = a.ids  # fixes a exactly (d=0 is already the unique min)
    mapping.setflags(write=False)
    dist.setflags(write=False)
    return Retraction(subset=a, mapping=mapping, dist=dist)


# ---------------------------------------------------------------------------
# pasting and single-vertex extension
# ---------------------------------------------------------------------------

def measured_bound(f: PartitionOfUnity) -> float:
    """Tight coboundedness of a pou; 0 for an empty domain."""
    if len(f.domain) == 0:
        return 0.0
    return float(star_preimage_diameters(f).max())


def _require_lipschitz(f: PartitionOfUnity, delta: float, who: str) -> None:
    rep = lipschitz_check(f, delta, delta, mode="full")
    if not rep.passed:
        raise PreconditionViolatedError(
            f"{who} is ({delta:g},{delta:g})-Lipschitz",
            f"worst slack {rep.worst_slack:g} at pair {rep.witness_pair}",
        )


def _alpha_blend(f: PartitionOfUnity, g: PartitionOfUnity, r: float) -> PartitionOfUnity:
    """h = a*g + (1-a)*f(p(.)) on the points of g's domain outside A = f's domain.

    f extended by h is f itself on A (a = 0 there), and g itself wherever
    dist(x, A) >= r (a = 1, which reads no f(p(x))), so p is needed only on
    the new points closer than r to A.  Only the points of A within 2r of a
    new point can be closer than r to one, so only their rows are read, cut
    off at r.  2r, not r, is a margin for rounding: on a float-weighted
    graph, with or without a table, d(x, y) and d(y, x) come from different
    searches and may differ in the last bits.
    """
    space = f.space
    new = PointSubset(g.domain.ids[~np.isin(g.domain.ids, f.domain.ids)])
    if len(new) == 0:
        return PartitionOfUnity.empty(space)
    near = np.flatnonzero(dist_to_set_all(space, new, 2.0 * r) < 2.0 * r)
    sources = near[np.isin(near, f.domain.ids)]
    dist, nearest = nearest_scan(space, sources, r)  # exact below r, as the whole scan
    g = g.restricted_to(new)
    ids = g.domain.ids
    return PartitionOfUnity._from_csr(
        space, ids, *convex_combine(np.minimum(dist[ids] / r, 1.0), g, f, nearest[ids]))


def _blend_fresh(f: PartitionOfUnity, points: PointSubset, epsilon: float,
                 mint: VertexMint) -> PartitionOfUnity:
    """f blended at r = 8/epsilon against one freshly minted vertex, on points outside f."""
    v = (mint.namespace(), 0)
    return _alpha_blend(f, PartitionOfUnity.constant(f.space, points, v), 8.0 / epsilon)


def paste(f: PartitionOfUnity, g: PartitionOfUnity, r: float, epsilon: float,
          delta: float, check_inputs: bool = True) -> PartitionOfUnity:
    """Blend a pou on a subset into a pou on the whole target domain.

    Preconditions (each named on violation): epsilon > 0, r >= 4/epsilon,
    delta <= epsilon/3 - 2/(3r), delta <= epsilon/(4r + 7), A nonempty, f
    and g over one space, and both inputs (delta, delta)-Lipschitz.  A NaN
    fails every comparison.  The Lipschitz checks run unless the caller
    asserts them with check_inputs=False.
    """
    if len(f.domain) == 0:
        raise EmptySetError("paste needs a nonempty subset pou")
    if g.space is not f.space:
        raise InvalidInputError("paste: f and g must lie over the same space")
    if not np.isin(f.domain.ids, g.domain.ids).all():
        raise InvalidInputError("paste: f's domain must lie inside g's domain")
    if not epsilon > 0:
        raise BadEpsilonError(f"epsilon must be > 0, got {epsilon!r}")
    if not r >= 4.0 / epsilon:
        raise PreconditionViolatedError("r >= 4/epsilon", f"r={r!r}, epsilon={epsilon!r}")
    lim1 = epsilon / 3.0 - 2.0 / (3.0 * r)
    if not delta <= lim1 + _REL_TOL * abs(lim1):
        raise PreconditionViolatedError(
            "delta <= epsilon/3 - 2/(3r)", f"delta={delta!r}, limit={lim1!r}")
    lim2 = epsilon / (4.0 * r + 7.0)
    if not delta <= lim2 + _REL_TOL * abs(lim2):
        raise PreconditionViolatedError(
            "delta <= epsilon/(4r+7)", f"delta={delta!r}, limit={lim2!r}")
    if check_inputs:
        _require_lipschitz(f, delta, "f")
        _require_lipschitz(g, delta, "g")
    return f.merged_with(_alpha_blend(f, g, r))


def extend_pou(f: PartitionOfUnity, epsilon: float, modulus: Optional[Modulus] = None,
               target: Optional[PointSubset] = None, *, mint: VertexMint,
               check_inputs: bool = True) -> PartitionOfUnity:
    """Extend an (E(eps), E(eps))-Lipschitz pou to the target at slope eps.

    Uses r = 8/eps and blends against a constant pou on a freshly minted
    vertex (not a previously used one: a shared vertex could collapse
    coboundedness across unrelated extensions).  Makes no coboundedness
    claim of its own.
    """
    if len(f.domain) == 0:
        raise EmptySetError("extend_pou needs a nonempty input pou")
    if epsilon <= 0:
        raise BadEpsilonError(f"epsilon must be > 0, got {epsilon!r}")
    modulus = modulus or default_modulus()
    space = f.space
    target = target if target is not None else space.all_points()
    if not np.isin(f.domain.ids, target.ids).all():
        raise InvalidInputError("extension target must contain the input domain")
    delta = modulus(epsilon)
    if check_inputs:
        _require_lipschitz(f, delta, "f")
    if len(f.domain) == len(target):  # target holds f's domain
        return f
    return f.merged_with(_blend_fresh(f, target, epsilon, mint))


# ---------------------------------------------------------------------------
# bounded pieces and disjoint families
# ---------------------------------------------------------------------------

def extend_over_bounded_piece(f: PartitionOfUnity, piece: PointSubset, r_m: Optional[float],
                              budget: float, *, mint: VertexMint,
                              piece_bound: Optional[float] = None,
                              input_bound: Optional[float] = None):
    """Extend a pou over one uniformly bounded piece.

    Branch 1 (the input domain misses the open r_m-neighborhood of the
    piece, or is empty): the piece maps to one fresh vertex, and cross pairs
    are handled by the distance gap alone.  Branch 2: blend the piece's new
    points toward f at r = 8/budget against one fresh vertex, then retract
    their carrier onto s1, the carrier of f on its points within r_m of the
    piece, sending every other vertex to min(s1).  The points of f near the
    piece have support in s1, so the retraction would not move them.

    Returns (pou, bound, branch): the pou holds only the piece's points
    outside f's domain, and bound is the composed coboundedness formula of
    f extended by it: input + piece bound (+ r_m for branch 2).
    """
    piece.validate_against(f.space)
    if len(piece) == 0:
        raise EmptySetError("cannot extend over an empty piece")
    space = f.space
    k_piece = diameter(space, piece) if piece_bound is None else float(piece_bound)
    k_in = (measured_bound(f) if input_bound is None else float(input_bound))
    new = PointSubset(piece.ids[~np.isin(piece.ids, f.domain.ids)])

    a_near = np.empty(0, dtype=np.intp)
    if len(f.domain):
        if r_m is not None and budget < (2.0 / (r_m + 1.0)) * (1.0 - _REL_TOL):
            # pairs across the piece's neighborhood boundary sit at distance
            # at least r_m, where only the additive budget covers the gap
            raise PreconditionViolatedError(
                "budget >= 2/(r_m + 1)",
                f"budget={budget!r}, r_m={r_m!r}")
        reach = math.inf if r_m is None else r_m  # only distances below r_m are read
        near = np.flatnonzero(dist_to_set_all(space, piece, reach) < reach)
        a_near = near[np.isin(near, f.domain.ids)]

    if len(a_near) == 0:
        return PartitionOfUnity.constant(space, new, (mint.namespace(), 0)), k_in + k_piece, 1

    if r_m is None:
        raise InvalidInputError("branch 2 requires the neighborhood radius r_m")
    if not (0.0 < budget < math.inf):
        raise InvalidInputError(f"budget must be positive and finite, got {budget!r}")
    bound = k_in + k_piece + r_m
    if len(new) == 0:
        return PartitionOfUnity.empty(space), bound, 2
    g = _blend_fresh(f, new, budget, mint)
    s1 = set(f.restricted_to(PointSubset(a_near)).carrier())
    s1_min = min(s1)
    retract = {v: (v if v in s1 else s1_min) for v in g.carrier()}
    return simplicial_retraction(g, retract, new), bound, 2


def extend_over_disjoint_family(f: PartitionOfUnity, pieces: Sequence[PointSubset],
                                R: float, budget: float,
                                extender: Callable[[PartitionOfUnity, int, float], tuple],
                                input_bound: Optional[float] = None,
                                verify_family: bool = True,
                                budget_warnings: Optional[list] = None):
    """Extend a pou over every piece of an R-disjoint family and glue.

    Each piece is extended independently from the same input (extender(f, t,
    budget) returns a pou holding piece t's new points, and its bound; only
    those points are read, so a pou over more of the space also does); fresh
    vertices minted per piece must be pairwise disjoint, which is asserted by
    set intersection before the glue.  Gluing is sound when the budget is at
    least 2/(R + 1): cross-piece pairs sit at distance above R, where the
    additive slack alone covers the maximal simplex distance.  A smaller
    budget raises BudgetTooSmallError, unless budget_warnings is a list, which
    then records it and leaves the verdict to the verifier.

    Returns (pou, bound) with bound = 2 * max piece bound + input bound.
    """
    space = f.space
    k_in = measured_bound(f) if input_bound is None else float(input_bound)
    if not pieces:
        return f, k_in
    if verify_family:
        rep = r_disjoint_check(space, pieces, R)
        if not rep.passed:
            raise NotRDisjointError(rep.witness)
    required = 2.0 / (R + 1.0)
    if budget < required * (1.0 - _REL_TOL):
        if budget_warnings is None:
            raise BudgetTooSmallError(budget, required)
        budget_warnings.append({"budget": budget, "required": required, "R": R})

    base_carrier = set(f.carrier())
    seen_new: set = set()
    parts: List[PartitionOfUnity] = []
    worst_piece_bound = 0.0
    for t, piece in enumerate(pieces):
        g_t, bound_t = extender(f, t, budget)[:2]
        new_vs = set(g_t.carrier()) - base_carrier
        overlap = new_vs & seen_new
        if overlap:
            raise VerificationFailedError(
                f"carrier discipline violated: vertex {sorted(overlap)[0]} "
                f"used by two pieces")
        seen_new |= new_vs
        parts.append(g_t.restricted_to(piece))
        worst_piece_bound = max(worst_piece_bound, bound_t)
    # a point f holds keeps f's weights; a point of two pieces, the first's
    return f.merged_with(*parts), 2.0 * worst_piece_bound + k_in


# ---------------------------------------------------------------------------
# the certificate pipeline
# ---------------------------------------------------------------------------

@dataclass
class CertificateResult:
    pou: PartitionOfUnity
    bound: float
    schedule: BudgetSchedule
    lipschitz: LipschitzReport
    cobounded: CoboundedReport
    branch_counts: Dict[str, int]
    budget_warnings: List[dict] = field(default_factory=list)
    assumptions: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.lipschitz.passed and self.cobounded.passed

    def report_json(self) -> dict:
        return {
            "check": "certificate",
            "pass": self.passed,
            "tolerance": SLACK_TOL,
            "epsilon": self.schedule.epsilon,
            "bound": self.bound,
            "lipschitz": self.lipschitz.to_json(),
            "cobounded": self.cobounded.to_json(),
            "branch_counts": dict(self.branch_counts),
            "budget_warnings": list(self.budget_warnings),
            "assumptions": list(self.assumptions),
        }


def build_certificate(space: FiniteMetricSpace, tree: DecompositionTree,
                      epsilon: float, modulus: Optional[Modulus] = None,
                      schedule_mode: str = "conservative") -> CertificateResult:
    """Build and verify a certificate over a validated decomposition tree.

    Recursive descent: leaves go through the bounded-piece extension, and an
    interior node processes its families sequentially at the ascending budget
    ladder ending at the node's own budget.  The root starts from the empty
    pou at the target slope.  Tree radii must dominate the schedule's
    requirements (ScheduleMismatch before any work otherwise).  The final
    restricted-mode Lipschitz check and the coboundedness check against the
    composed formula bound are mandatory; their reports are the output.
    """
    modulus = modulus or default_modulus()
    if not (0.0 < epsilon < 2.0):
        raise BadEpsilonError(f"epsilon must be in (0, 2), got {epsilon!r}")
    validation = tree_validate(space, tree)
    if not validation.passed:
        raise InvalidInputError(
            f"tree validation failed: clause {validation.failed_clause}, "
            f"{validation.witness}")
    schedule = budget_schedule(tree, epsilon, modulus, schedule_mode)
    for i in range(1, tree.m):
        if tree.radii[i - 1] < schedule.R_required[i - 1] * (1.0 - _REL_TOL):
            raise ScheduleMismatchError(i, tree.radii[i - 1], schedule.R_required[i - 1])

    mint = VertexMint()
    leaf_bound = validation.leaf_bound
    r_claim = schedule.R_required[tree.m - 1] if tree.m >= 2 else None
    counters = {"branch1": 0, "branch2": 0}
    warnings: List[dict] = []
    # conservative mode refuses a short glue budget; paper mode records it
    recorded = None if schedule_mode == "conservative" else warnings

    def extend_node(f: PartitionOfUnity, node: TreeNode, u: float,
                    k_in: float) -> Tuple[PartitionOfUnity, float]:
        if node.level == tree.m:
            g, bound, branch = extend_over_bounded_piece(
                f, node.members, r_claim, u, mint=mint,
                piece_bound=leaf_bound, input_bound=k_in)
            counters[f"branch{branch}"] += 1
            return g, bound
        i = node.level
        p_next = schedule.P[i]  # P(i+1)
        q = len(node.families)
        h, k = f, k_in
        for j, fam in enumerate(node.families):
            steps = (q - 1 - j) * p_next
            u_j = modulus.power(u, steps) if steps else u
            children = [tree.node(cid) for cid in fam]
            pieces = [c.members for c in children]
            k_snapshot = k
            h, k = extend_over_disjoint_family(
                h, pieces, tree.radii[i - 1], u_j,
                lambda ff, t, uu: extend_node(ff, children[t], uu, k_snapshot),
                input_bound=k, verify_family=False, budget_warnings=recorded)
        return h, k

    root = tree.root
    f0 = PartitionOfUnity.empty(space)
    pou, bound = extend_node(f0, root, epsilon, 0.0)

    if len(pou.domain) != space.n:
        raise VerificationFailedError("certificate does not cover the space")
    lip = lipschitz_check(pou, epsilon, epsilon, mode="restricted")
    cob = cobounded_check(pou, bound)
    result = CertificateResult(
        pou=pou, bound=bound, schedule=schedule, lipschitz=lip, cobounded=cob,
        branch_counts=counters, budget_warnings=warnings,
        assumptions=["intermediate Lipschitz preconditions asserted by the ladder"],
    )
    if not result.passed:
        raise VerificationFailedError(
            "certificate failed its mandatory verification", result.report_json())
    return result
