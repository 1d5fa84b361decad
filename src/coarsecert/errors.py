"""Exception taxonomy for coarsecert.

Every error raised by the library derives from CoarseCertError so that the
CLI can map library failures to exit code 2 (input/usage) uniformly, keeping
exit code 1 for honest verification failures.
"""

from __future__ import annotations


class CoarseCertError(Exception):
    """Base class for all coarsecert errors."""


# ---------------------------------------------------------------------------
# metric loading / queries
# ---------------------------------------------------------------------------

class MetricError(CoarseCertError):
    """A loaded distance function violates a metric axiom."""


class AsymmetryError(MetricError):
    def __init__(self, x: int, y: int, dxy: float, dyx: float):
        self.pair = (x, y)
        super().__init__(f"d({x},{y})={dxy!r} but d({y},{x})={dyx!r}")


class NegativeDistanceError(MetricError):
    def __init__(self, x: int, y: int, d: float):
        self.pair = (x, y)
        super().__init__(f"d({x},{y})={d!r} < 0")


class NonzeroDiagonalError(MetricError):
    def __init__(self, x: int, d: float):
        self.point = x
        super().__init__(f"d({x},{x})={d!r} != 0")


class ZeroOffDiagonalError(MetricError):
    def __init__(self, x: int, y: int):
        self.pair = (x, y)
        super().__init__(f"d({x},{y})=0 for distinct points {x} != {y}")


class TriangleViolationError(MetricError):
    def __init__(self, x: int, y: int, z: int, dxz: float, dxy: float, dyz: float):
        self.triple = (x, y, z)
        super().__init__(
            f"d({x},{z})={dxz!r} > d({x},{y})+d({y},{z})={dxy + dyz!r}"
        )


class ShortestPathViolationError(MetricError):
    """d(x,y) of a certified graph row is not the shortest-path distance its edges give.

    Every graph whose edges weigh more than METRIC_TOL certifies rows at
    load: all of them with a table, a seeded pool of them without one.
    edge is the edge (u,y) into y that the entry fails on: too far above
    d(x,u) + w(u,y), or too far below it while that edge is the closest way in.
    """

    def __init__(self, x: int, y: int, u: int, w: float, dxy: float, dxu: float):
        self.pair = (x, y)
        self.edge = (u, y)
        self.weight = w
        self.values = (dxy, dxu)
        if dxy > dxu + w:
            claim = f"d({x},{y})={dxy!r} > d({x},{u})+w({u},{y})={dxu!r}+{w!r}"
        else:
            claim = (f"d({x},{y})={dxy!r} < d({x},{u})+w({u},{y})={dxu!r}+{w!r}, "
                     f"the least over the edges into {y}")
        super().__init__(claim)


class DisconnectedError(CoarseCertError):
    def __init__(self, representative: int):
        self.representative = representative
        super().__init__(
            f"graph is disconnected; point {representative} is stranded"
        )


class MixedArityError(CoarseCertError):
    pass


class BadNormError(CoarseCertError):
    pass


class EmptySetError(CoarseCertError):
    pass


class InvalidInputError(CoarseCertError):
    """Malformed input outside the named metric-axiom violations."""


def required(obj: dict, key: str, what: str):
    """obj[key], or an InvalidInputError naming it, such as 'report has no "bound"'."""
    if key not in obj:
        raise InvalidInputError(f'{what} has no "{key}"')
    return obj[key]


# ---------------------------------------------------------------------------
# simplex / partitions of unity
# ---------------------------------------------------------------------------

class NotACoverError(CoarseCertError):
    def __init__(self, point: int):
        self.point = point
        super().__init__(f"point {point} is not covered by any member")


class NotARetractionError(CoarseCertError):
    pass


class SupportEscapesError(CoarseCertError):
    pass


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

class BadModeError(CoarseCertError):
    pass


# ---------------------------------------------------------------------------
# covers / decomposition
# ---------------------------------------------------------------------------

class NotTwoSDisjointError(CoarseCertError):
    def __init__(self, level: int, witness: tuple):
        self.level = level
        self.witness = witness
        super().__init__(f"level {level} is not 2s-disjoint; witness {witness}")


class NotAGridError(CoarseCertError):
    pass


class ScaleTooSmallError(CoarseCertError):
    pass


class ConstructionFailedError(CoarseCertError):
    """A construction's mandatory post-hoc verification did not pass."""


# ---------------------------------------------------------------------------
# extension pipeline
# ---------------------------------------------------------------------------

class PreconditionViolatedError(CoarseCertError):
    def __init__(self, name: str, detail: str = ""):
        self.name = name
        super().__init__(f"precondition {name} violated" + (f": {detail}" if detail else ""))


class NotRDisjointError(CoarseCertError):
    def __init__(self, witness: tuple):
        self.witness = witness
        super().__init__(f"family is not R-disjoint; witness {witness}")


class BudgetTooSmallError(CoarseCertError):
    def __init__(self, budget: float, required: float):
        self.budget = budget
        self.required = required
        super().__init__(f"budget {budget!r} < 2/(R+1) = {required!r}")


class UnderflowError_(CoarseCertError):
    """A schedule budget fell below 1e-300 and is not representable."""

    def __init__(self, level: int, detail: str = ""):
        self.level = level
        self.detail = detail
        msg = f"budget underflow at level {level}; consider a linear modulus"
        super().__init__(msg + (f" ({detail})" if detail else ""))


class BadEpsilonError(CoarseCertError):
    pass


class ScheduleMismatchError(CoarseCertError):
    def __init__(self, level: int, tree_radius: float, required: float):
        self.level = level
        self.tree_radius = tree_radius
        self.required = required
        super().__init__(
            f"tree radius R_{level}={tree_radius!r} below schedule "
            f"requirement {required!r}"
        )


class VerificationFailedError(CoarseCertError):
    """A mandatory post-construction verification failed (construction bug)."""

    def __init__(self, message: str, report=None):
        self.report = report
        super().__init__(message)
