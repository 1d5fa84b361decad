"""coarsecert: Lipschitz partition-of-unity certificates on finite metric spaces.

The library constructs partitions of unity with controlled Lipschitz slope
and coboundedness from nested disjoint-decomposition data, and re-verifies
every claim by direct computation.  The verifier, not the construction, is
the correctness authority.

Each public name is imported from its home module on first access (PEP 562),
so `import coarsecert` loads nothing, and code that only checks certificates
never loads the construction modules `construct`, `covers` and `extend`.
A module that calls a heavy import only on some paths binds the name to a
stand-in (_forward) instead, so that the import waits for the first call.
"""

import importlib

_HOMES = {name: home for home, names in (
    ("metric", "FiniteMetricSpace PointSubset diameter load_graph load_matrix load_points"),
    ("simplex", "PartitionOfUnity VertexId star_preimage_diameters"),
    ("verify", "cobounded_check lipschitz_check"),
    ("construct", "CoverFamily VertexMint barycentric_pou convex_combine lebesgue_check "
                  "multiplicity r_disjoint_check simplicial_retraction uniformly_bounded_check"),
    ("covers", "DecompositionTree brick_tree greedy_decomposition greedy_tree "
               "point_finite_transform tree_validate"),
    ("extend", "BudgetSchedule Modulus budget_schedule build_certificate default_modulus "
               "extend_over_bounded_piece extend_over_disjoint_family extend_pou paste"),
) for name in names.split()}

__all__ = list(_HOMES)
__version__ = "0.1.0"


def __getattr__(name):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value


def _forward(module: str, name: str):
    """A stand-in for module.name that imports module when called.

    module is absolute, or relative to this package (".covers").  The name
    is looked up on every call, so a patch of module.name is seen.
    """
    def call(*args, **kwargs):
        return getattr(importlib.import_module(module, __name__), name)(*args, **kwargs)
    call.__name__ = call.__qualname__ = name
    return call
