"""Decomposition data: disjoint families, cover transforms, decomposition trees.

A DecompositionTree nests families of subsets: the root is the whole space,
each node at level i splits into at most n_i families of children that are
pairwise R_i-disjoint (families may overlap each other; the union of the
families is the node), and the leaf level is uniformly bounded.  Trees with
all arities <= 2 are the straight-decomposition special case.

Constructions here are greedy and deterministic: existence is what matters,
not optimality.  Cover and family constructions re-check their output with
the verify module before returning it.  Trees are checked by tree_validate
where they are written (`coarsecert decompose`) and where they are read
(build_certificate), not by the functions that build them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    ConstructionFailedError,
    InvalidInputError,
    NotACoverError,
    NotAGridError,
    NotTwoSDisjointError,
    ScaleTooSmallError,
    required,
)
from .metric import (
    FiniteMetricSpace,
    PointSubset,
    as_float,
    as_int,
    ball_blocks,
    closed_set_ball,
    cross_minima,
    dist_to_set_all,
    real_array,
)
from .verify import (
    SLACK_TOL,
    CoverFamily,
    lebesgue_check,
    multiplicity,
    r_disjoint_check,
    uniformly_bounded_check,
)


# ---------------------------------------------------------------------------
# decomposition trees
# ---------------------------------------------------------------------------

@dataclass
class TreeNode:
    id: int
    level: int
    members: PointSubset
    families: List[List[int]] = field(default_factory=list)  # child ids, grouped


@dataclass
class DecompositionTree:
    """Nested decomposition families with per-level arity and radius."""

    m: int
    arity: Tuple[int, ...]   # n_1 .. n_{m-1}
    radii: Tuple[float, ...]  # R_1 .. R_{m-1}
    nodes: List[TreeNode]

    def __post_init__(self):
        self.arity = tuple(as_int(a, "tree arity") for a in self.arity)
        self.radii = tuple(as_float(r, "tree radius") for r in self.radii)
        if len(self.arity) != self.m - 1 or len(self.radii) != self.m - 1:
            raise InvalidInputError(
                f"tree of depth {self.m} needs {self.m - 1} arities and radii"
            )
        for r in self.radii:
            if not (0.0 <= r < math.inf):
                raise InvalidInputError(f"tree radius {r!r} must be finite and >= 0")

    def node(self, node_id: int) -> TreeNode:
        if not hasattr(self, "_node_index"):
            self._node_index = {nd.id: nd for nd in self.nodes}
        return self._node_index[node_id]

    @property
    def root(self) -> TreeNode:
        roots = [nd for nd in self.nodes if nd.level == 1]
        if len(roots) != 1:
            raise InvalidInputError(f"tree has {len(roots)} level-1 nodes, expected 1")
        return roots[0]

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "arity": list(self.arity),
            "radii": list(self.radii),
            "nodes": [
                {
                    "id": nd.id,
                    "level": nd.level,
                    "members": nd.members.ids.tolist(),
                    "families": [list(fam) for fam in nd.families],
                }
                for nd in self.nodes
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "DecompositionTree":
        """The tree of a tree file's object, whose "nodes" are TreeNodes already.

        A reader turns each node object into a TreeNode as it comes
        (node_from_json), so a file's nodes are never held as JSON at once.
        """
        nodes = required(obj, "nodes", "tree")
        return cls(m=as_int(required(obj, "m", "tree"), "tree depth"),
                   arity=tuple(_array(obj.get("arity", []), "tree arity")),
                   radii=tuple(_array(obj.get("radii", []), "tree radii")), nodes=nodes)


def _array(value, what: str):
    if not isinstance(value, (list, tuple)):
        raise InvalidInputError(f"{what} is not an array")
    return value


def node_from_json(k: int, nd) -> TreeNode:
    """Tree node #k of a tree file, naming a malformed field or a point listed twice.

    Its members are a JSON array, or the int64 array a reader parsed it into.
    """
    if not isinstance(nd, dict):
        raise InvalidInputError(f"tree node #{k} is not an object")
    node_id = as_int(required(nd, "id", f"tree node #{k}"), "node id")
    level = as_int(required(nd, "level", f"tree node #{k}"), "node level")
    members = required(nd, "members", f"tree node #{k}")
    if not isinstance(members, np.ndarray):
        members = _array(members, f"node {node_id} members")
    ids = _member_ids(node_id, members)
    members = PointSubset(ids)
    if len(members) < len(ids):
        values, counts = np.unique(ids, return_counts=True)
        raise InvalidInputError(f"node {node_id} lists point {values[counts > 1][0]} twice")
    families = [[as_int(c, "child id") for c in _array(fam, f"node {node_id} family {j}")]
                for j, fam in enumerate(_array(nd.get("families", []),
                                               f"node {node_id} families"))]
    return TreeNode(id=node_id, level=level, members=members, families=families)


def _member_ids(node_id: int, members) -> np.ndarray:
    """Node node_id's member ids as one read-only intp array, which PointSubset keeps.

    members is a list, or an int64 array that the reader made of them.  A
    list converts through real_array when each member is an integer.  Ids
    pass when each is below 2**53 in magnitude.  Otherwise the members go
    through as_int one at a time, to name the first that is not an integer;
    if each is one, the largest lies past 2**53, outside every space.
    """
    ids = members if isinstance(members, np.ndarray) else real_array(members)
    if ids is not None and ids.dtype.kind == "f" and not (ids == np.trunc(ids)).all():
        ids = None  # NaN too
    if ids is not None and (not ids.size or (-2 ** 53 < ids.min() and ids.max() < 2 ** 53)):
        ids = ids.astype(np.intp, copy=False)
        ids.setflags(write=False)
        return ids
    members = members.tolist() if isinstance(members, np.ndarray) else members
    for x in members:
        as_int(x, "member id")
    raise InvalidInputError(f"node {node_id}: point id {max(members, key=abs)} outside every space")


@dataclass
class TreeValidation:
    passed: bool
    failed_clause: Optional[str]  # "structure" | "1" | "2" | "3"
    witness: Optional[str]
    leaf_bound: Optional[float]  # K, the tight uniform bound of the leaf level
    sfdc: bool

    def to_json(self) -> dict:
        return {
            "check": "tree_validate",
            "pass": self.passed,
            "failed_clause": self.failed_clause,
            "witness": self.witness,
            "leaf_bound": self.leaf_bound,
            "sfdc": self.sfdc,
        }


def tree_validate(space: FiniteMetricSpace, tree: DecompositionTree) -> TreeValidation:
    """Re-establish the decomposition-tree clauses by direct computation.

    Checks, in order: structural consistency (ids, levels, parent/child
    wiring), clause 1 (the root is the whole space), clause 2 per interior
    node (at most n_i families, each R_i-disjoint, their union equal to the
    node), and clause 3 (the leaf level is uniformly bounded; its tight bound
    is reported).  Failures are reported, not raised.
    """
    sfdc = all(a <= 2 for a in tree.arity)

    def fail(clause, witness):
        return TreeValidation(False, clause, witness, None, sfdc)

    ids = [nd.id for nd in tree.nodes]
    if len(set(ids)) != len(ids):
        return fail("structure", "duplicate node ids")
    index = {nd.id: nd for nd in tree.nodes}
    seen_child = set()
    for nd in tree.nodes:
        if not (1 <= nd.level <= tree.m):
            return fail("structure", f"node {nd.id} at level {nd.level}")
        if nd.level == tree.m and nd.families:
            return fail("structure", f"leaf node {nd.id} has children")
        try:
            nd.members.validate_against(space)
        except InvalidInputError as exc:
            return fail("structure", f"node {nd.id}: {exc}")
        for fam in nd.families:
            for cid in fam:
                if cid not in index:
                    return fail("structure", f"unknown child id {cid}")
                child = index[cid]
                if child.level != nd.level + 1:
                    return fail("structure",
                                f"child {cid} at level {child.level} under level {nd.level}")
                if cid in seen_child:
                    return fail("structure", f"child {cid} referenced twice")
                seen_child.add(cid)
    roots = [nd for nd in tree.nodes if nd.level == 1]
    if len(roots) != 1:
        return fail("structure", f"{len(roots)} level-1 nodes")
    for nd in tree.nodes:
        if nd.level > 1 and nd.id not in seen_child:
            return fail("structure", f"node {nd.id} is unreachable")

    root = roots[0]
    missing = _uncovered(space, [root.members])
    if len(missing):
        return fail("1", f"root misses point {missing[0]}")

    for nd in sorted(tree.nodes, key=lambda x: x.id):
        if nd.level >= tree.m:
            continue
        i = nd.level
        n_i, r_i = tree.arity[i - 1], tree.radii[i - 1]
        if len(nd.families) > n_i:
            return fail("2", f"node {nd.id} has {len(nd.families)} families > n_{i}={n_i}")
        union = [np.empty(0, dtype=np.intp)]
        for k, fam in enumerate(nd.families):
            if not fam:
                return fail("2", f"node {nd.id} family {k} is empty")
            members = [index[cid].members for cid in fam]
            empty = [cid for cid, m_ in zip(fam, members) if not len(m_)]
            if empty:
                return fail("2", f"node {nd.id} family {k}: child {empty[0]} is empty")
            rep = r_disjoint_check(space, members, r_i)
            if not rep.passed:
                x, y, s, t = rep.witness
                return fail("2",
                            f"node {nd.id} family {k}: d({x},{y})={rep.min_cross:g} <= R_{i}={r_i:g}")
            union += [m_.ids for m_ in members]
        diff = np.setxor1d(nd.members.ids, np.concatenate(union))
        if len(diff):
            return fail("2", f"node {nd.id}: families do not union to the node (point {diff[0]})")

    leaves = [nd for nd in tree.nodes if nd.level == tree.m]
    if not leaves:
        return fail("3", "no leaf level")
    bound_rep = uniformly_bounded_check(space, [nd.members for nd in leaves])
    return TreeValidation(True, None, None, bound_rep.bound, sfdc)


# ---------------------------------------------------------------------------
# greedy decomposition at one scale
# ---------------------------------------------------------------------------

def greedy_decomposition(space: FiniteMetricSpace, R: float,
                         target_diam: float) -> List[List[PointSubset]]:
    """R-disjoint uniformly bounded families covering the space, greedily.

    Pieces come from ball carving (the smallest uncovered id claims every
    uncovered point within target_diam/2, so piece diameters stay at most
    target_diam), then pieces are colored greedily in ascending id order on
    the conflict graph whose edges join pieces at cross-distance <= R.  One
    family per color.  Both output properties are re-checked before return.
    """
    if not target_diam > 0:  # NaN too: it would claim no point, forever
        raise InvalidInputError(f"target_diam must be > 0, got {target_diam!r}")
    uncovered = np.ones(space.n, dtype=bool)
    pieces: List[PointSubset] = []
    radius = target_diam / 2.0
    while uncovered.any():
        seed = int(np.flatnonzero(uncovered)[0])
        row = space.rows(np.array([seed]), radius)[0]  # exact up to the radius
        claim = np.flatnonzero(uncovered & (row <= radius))
        pieces.append(PointSubset(claim))
        uncovered[claim] = False

    # one distance to each piece gives its cross minima with every later piece
    conflicts: List[List[int]] = [[] for _ in pieces]  # earlier pieces within R
    for q, cross in enumerate(cross_minima(space, pieces)):
        for p in q + 1 + np.flatnonzero(cross <= R):
            conflicts[p].append(q)
    colors: List[int] = []
    for p in range(len(pieces)):
        used = {colors[q] for q in conflicts[p]}
        c = 0
        while c in used:
            c += 1
        colors.append(c)
    families = [[pieces[p] for p in range(len(pieces)) if colors[p] == c]
                for c in range(max(colors) + 1)]

    for fam in families:
        rep = r_disjoint_check(space, fam, R)
        if not rep.passed:
            raise ConstructionFailedError(
                f"greedy family not {R}-disjoint", rep.to_json())
    bound = uniformly_bounded_check(space, pieces)
    if bound.bound > target_diam + SLACK_TOL:
        raise ConstructionFailedError(
            f"piece diameter {bound.bound} exceeds target {target_diam}",
            bound.to_json())
    return families


def greedy_tree(space: FiniteMetricSpace, R: float, target_diam: float) -> DecompositionTree:
    """greedy_decomposition as a depth-2 tree, one leaf per piece.

    Leaves are numbered family by family; the root's families keep the order
    of greedy_decomposition, so the tree carries exactly its families.
    """
    families = greedy_decomposition(space, R, target_diam)
    pieces = [piece for fam in families for piece in fam]
    colors = [c for c, fam in enumerate(families) for _ in fam]
    return _depth2_tree(space, pieces, colors, R, len(families))


# ---------------------------------------------------------------------------
# point-finite cover transform
# ---------------------------------------------------------------------------

def point_finite_transform(space: FiniteMetricSpace, levels: Sequence[Sequence[PointSubset]],
                     s: float) -> CoverFamily:
    """From 2s-disjoint levels that jointly cover, build a point-finite cover.

    Each member U at level k is trimmed to U' by removing the closed
    s-neighborhoods of all earlier-level members, then enlarged back to
    U* = {x : dist(x, U') <= s}.  The closed enlargement keeps the s-ball
    around U' inside U*, which is what the open-ball Lebesgue check needs.

    Precondition: the trimmed members U' cover the space, that is, every
    point lies in a member of some level and farther than s from every
    member of the earlier levels.  Levels that are 2s-disjoint and jointly
    cover need not satisfy it: on a path, brick_tree's two families of
    adjacent 160-point blocks at s = 79.5 leave point 160 (one step from the
    first block) in no trimmed member, and the Lebesgue check fails there.

    Guarantees are verified post-hoc: the output covers the space, has
    Lebesgue number >= s (when the precondition holds), is uniformly
    bounded by the input bound plus 2s, and has multiplicity at most the
    level count (at most one member per level up to the first level
    containing the point).  A failed check raises ConstructionFailedError.
    """
    if s <= 0:
        raise InvalidInputError(f"scale s must be > 0, got {s!r}")
    levels = [list(level) for level in levels]
    for k, level in enumerate(levels):
        rep = r_disjoint_check(space, level, 2 * s)
        if not rep.passed:
            raise NotTwoSDisjointError(k, rep.witness)
    members = [m for level in levels for m in level]
    missing = _uncovered(space, members)
    if len(missing):
        raise NotACoverError(int(missing[0]))

    input_bound = uniformly_bounded_check(space, members).bound

    removed = np.zeros(space.n, dtype=bool)  # within s of an earlier level's member
    out_members: List[PointSubset] = []
    for level in levels:
        trimmed = [m.ids[~removed[m.ids]] for m in level]
        out_members += [closed_set_ball(space, PointSubset(t), s) for t in trimmed if len(t)]
        for member in level:
            removed |= dist_to_set_all(space, member, s) <= s

    family = CoverFamily(tuple(out_members))

    missing = _uncovered(space, out_members)
    if len(missing):
        raise ConstructionFailedError(f"transform output does not cover point {missing[0]}")
    leb = lebesgue_check(space, family, s)
    if not leb.passed:
        raise ConstructionFailedError(
            f"transform output has Lebesgue number < {s} at point {leb.witness_point}",
            leb.to_json())
    mult = multiplicity(space, family)
    if mult.maximum > len(levels):
        raise ConstructionFailedError(
            f"multiplicity {mult.maximum} exceeds level count {len(levels)}",
            mult.to_json())
    bound = uniformly_bounded_check(space, family)
    if bound.bound > input_bound + 2 * s + SLACK_TOL:
        raise ConstructionFailedError(
            f"output bound {bound.bound} exceeds {input_bound} + 2s",
            bound.to_json())
    return family


def net_ball_levels(space: FiniteMetricSpace, net: Sequence[int],
                    r: float) -> List[List[PointSubset]]:
    """Closed r-balls around net points, one singleton family per ball.

    A net whose closed r-balls cover the space yields infinitely-disjoint
    singleton levels, the canonical well-formed input for the cover
    transform at any scale.
    """
    levels = [[closed_set_ball(space, PointSubset([x]), r)] for x in net]
    missing = _uncovered(space, [level[0] for level in levels])
    if len(missing):
        raise NotACoverError(int(missing[0]))
    return levels


def _uncovered(space: FiniteMetricSpace, members: Sequence[PointSubset]) -> np.ndarray:
    """The points of the space in no member, ascending."""
    return np.setdiff1d(np.arange(space.n),
                        np.concatenate([m.ids for m in members] + [np.empty(0, dtype=np.intp)]))


# ---------------------------------------------------------------------------
# brick decompositions for grid-like spaces
# ---------------------------------------------------------------------------

def _grid_shape(space: FiniteMetricSpace):
    shape = space.meta.get("grid_shape")
    if not shape or len(shape) not in (1, 2):
        raise NotAGridError(
            "space was not generated as a 1- or 2-dimensional grid box")
    return tuple(int(s) for s in shape)


def _depth2_tree(space: FiniteMetricSpace, pieces: Sequence[PointSubset],
                 colors: Sequence[int], R: float, arity: int) -> DecompositionTree:
    """Root over the whole space with leaf i + 1 = pieces[i].

    The root's families are the color classes 0..arity-1 in ascending color,
    each listing its leaves in piece order; empty classes are dropped.
    """
    nodes = [TreeNode(id=0, level=1, members=space.all_points())]
    nodes += [TreeNode(id=i + 1, level=2, members=piece) for i, piece in enumerate(pieces)]
    families = [[i + 1 for i, c in enumerate(colors) if c == k] for k in range(arity)]
    nodes[0].families = [fam for fam in families if fam]
    return DecompositionTree(m=2, arity=(arity,), radii=(R,), nodes=nodes)


def brick_tree(space: FiniteMetricSpace, R_schedule: Sequence[float],
               block_scale: float) -> DecompositionTree:
    """Depth-2 decomposition tree of interval blocks (1-d) or bricks (2-d).

    1-d: consecutive blocks of int(block_scale) points, alternating between
    two families; same-family blocks sit one block apart, so the gap is
    block_scale + 1 and block_scale must exceed R_1.

    2-d: square bricks of side int(block_scale) in rows staggered by half a
    brick, cyclically assigned to three families; the binding same-family
    gap is side/2 + 2, which must exceed R_1.

    A space whose diameter is at most block_scale gets the trivial depth-1
    tree (the root itself is the bounded level).  The tree is returned
    unchecked; validate it with tree_validate before use.
    """
    shape = _grid_shape(space)
    if math.isnan(block_scale):
        raise InvalidInputError(f"block_scale must be a number, got {block_scale!r}")
    if block_scale < 1:
        raise ScaleTooSmallError(f"block_scale must be >= 1, got {block_scale!r}")
    # diameter <= block_scale, from rows cut off at block_scale: the first
    # block whose ball misses a point (farther than block_scale) or whose
    # rows reach farther settles it
    if all(len(ball) == space.n and rows.max() <= block_scale
           for _, ball, rows in ball_blocks(space, np.arange(space.n), block_scale)):
        root = TreeNode(id=0, level=1, members=space.all_points())
        return DecompositionTree(m=1, arity=(), radii=(), nodes=[root])
    if not R_schedule:
        raise InvalidInputError("depth-2 brick tree needs R_schedule[0]")
    r1 = float(R_schedule[0])

    if len(shape) == 1:
        b = int(math.floor(block_scale))
        if b <= r1:
            raise ScaleTooSmallError(
                f"block_scale {block_scale!r} <= R_1 {r1!r}: families cannot "
                f"stay R_1-disjoint while covering")
        blocks = [PointSubset(np.arange(lo, min(lo + b, shape[0]))) for lo in range(0, shape[0], b)]
        tree = _depth2_tree(space, blocks, [i % 2 for i in range(len(blocks))], r1, 2)
    else:
        w, h = shape
        b = int(math.floor(block_scale))
        if b // 2 + 2 <= r1:
            raise ScaleTooSmallError(
                f"block_scale {block_scale!r} too small for R_1 {r1!r}: "
                f"same-family brick gap {b // 2 + 2} would not exceed R_1")
        sigma = b // 2
        bricks: List[PointSubset] = []
        colors: List[int] = []
        for t in range((h + b - 1) // b):
            ys = np.arange(t * b, min((t + 1) * b, h))
            j_lo = -((sigma * t) // b + 1)
            j_hi = (w - sigma * t) // b + 1
            for j in range(j_lo, j_hi + 1):
                x_lo = max(0, j * b + sigma * t)
                x_hi = min(w, (j + 1) * b + sigma * t)
                if x_lo >= x_hi:
                    continue
                bricks.append(PointSubset((np.arange(x_lo, x_hi)[:, None] * h + ys).ravel()))
                colors.append((j + 2 * t) % 3)
        tree = _depth2_tree(space, bricks, colors, r1, 3)
    return tree
