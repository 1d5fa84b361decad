"""Versioned JSON artifacts: spaces, partitions of unity, trees, reports.

All files are UTF-8 JSON with a schema version field "v": 1, written with
sorted keys and a trailing newline so identical runs produce byte-identical
files.  Weights round-trip exactly: they are emitted through Python's
shortest-exact float representation (17 significant digits suffice and are
never exceeded).  Infinity and NaN are not JSON (RFC 8259), so writing one
raises ValueError; a report field with no finite value is written as null.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Callable, Tuple, Union

import numpy as np

from .covers import DecompositionTree
from .errors import CoarseCertError, InvalidInputError
from .metric import FiniteMetricSpace, as_float, as_int, load_graph, load_matrix, load_points
from .simplex import PartitionOfUnity, vertex_key

SCHEMA_VERSION = 1


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def save_json(path: Union[str, Path], obj: Union[dict, str]) -> None:
    """Write obj's canonical text, or obj itself if it is already text."""
    text = obj if isinstance(obj, str) else dumps_canonical(obj)
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:  # a missing directory is an input error, not a failed check
        raise InvalidInputError(f"{path}: cannot write ({exc.strerror or exc})") from None


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict; json.loads alone would keep a repeated key's last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def load_json(path: Union[str, Path]) -> dict:
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, a duplicate key
        raise InvalidInputError(f"{path}: not valid JSON ({exc})") from None
    except OSError as exc:
        raise InvalidInputError(f"{path}: cannot read ({exc.strerror or exc})") from None
    if not isinstance(obj, dict):
        raise InvalidInputError(f"{path}: expected a JSON object")
    if obj.get("v") is True or obj.get("v") != SCHEMA_VERSION:  # true == 1 in Python
        raise InvalidInputError(f"{path}: unsupported schema version {obj.get('v')!r}")
    return obj


def _load(path: Union[str, Path], from_json: Callable, *args):
    """from_json(load_json(path), *args), naming the file if a field is malformed.

    A missing key or a value of the wrong type, form or range is an input
    error, not a verification failure.  A library error, such as a metric
    axiom's, keeps its type and witness.
    """
    obj = load_json(path)
    try:
        return from_json(obj, *args)
    except CoarseCertError as exc:
        exc.args = (f"{path}: {exc}",)
        raise
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(
            f"{path}: malformed artifact ({type(exc).__name__}: {exc})") from None


# ---------------------------------------------------------------------------
# spaces
# ---------------------------------------------------------------------------

def space_to_json(kind: str, n: int, data, meta: dict = None) -> dict:
    return {"v": SCHEMA_VERSION, "kind": kind, "n": int(n), "data": data,
            "meta": meta or {}}


def space_from_json(obj: dict) -> FiniteMetricSpace:
    kind = obj.get("kind")
    n = as_int(obj.get("n", 0), "vertex count")
    data = obj.get("data")
    meta = obj.get("meta") or {}
    if kind == "matrix":
        if len(data) != n:
            raise InvalidInputError(f"matrix has {len(data)} rows but n is {n}")
        return load_matrix(data, meta=meta)
    if kind == "graph":
        return load_graph(n, data, meta=meta)
    if kind == "points":
        coords = data["coords"]
        if len(coords) != n:
            raise InvalidInputError(f"points space has {len(coords)} points but n is {n}")
        return load_points(coords, data["p"], meta=meta)
    raise InvalidInputError(f"unknown space kind {kind!r}")


def load_space(path: Union[str, Path]) -> FiniteMetricSpace:
    return _load(path, space_from_json)


# ---------------------------------------------------------------------------
# partitions of unity
# ---------------------------------------------------------------------------

def pou_to_json(pou: PartitionOfUnity, space_ref: str = "") -> str:
    """The pou file's text: dumps_canonical of {"v", "space", "entries"}.

    entries maps each point id, as a string, to its row as [vertex key,
    weight] pairs in carrier order.  The text is rendered one row at a time
    rather than built as that dict.
    """
    if not np.isfinite(pou.weights).all():
        raise ValueError("Out of range float values are not JSON compliant")
    heads = [f'["{vertex_key(v)}",' for v in pou.carrier()]
    counts = np.diff(pou.indptr)
    order = np.lexsort((pou.columns, np.repeat(np.arange(len(counts)), counts)))
    cols, weights = pou.columns[order].tolist(), pou.weights[order].tolist()
    bounds, names = pou.indptr.tolist(), [str(x) for x in pou.domain.ids.tolist()]
    rows = []
    for i in sorted(range(len(names)), key=names.__getitem__):  # keys sort as strings
        a, b = bounds[i], bounds[i + 1]
        row = ",".join([f"{heads[j]}{w!r}]" for j, w in zip(cols[a:b], weights[a:b])])
        rows.append(f'"{names[i]}":[{row}]')
    return (f'{{"entries":{{{",".join(rows)}}},"space":{json.dumps(space_ref)},'
            f'"v":{SCHEMA_VERSION}}}\n')


def _plain_decimal(text) -> bool:
    """A string of ASCII digits; int() alone also reads "1_0", " 1" and "+1"."""
    return isinstance(text, str) and text.isascii() and text.isdigit()


def _vertex(vk, x: int):
    """The vertex whose key is vk, an entry of point x."""
    ns, _, idx = vk.partition(":") if isinstance(vk, str) else ("", "", "")
    if not (_plain_decimal(ns) and _plain_decimal(idx)):
        raise InvalidInputError(
            f"vertex key {vk!r} of point {x} is not two plain decimals joined by ':'")
    return int(ns), int(idx)


def _no_repeat(x: int, row: list) -> None:
    """Name the first vertex that point x's row lists a second time."""
    seen = set()
    for v in row:
        if v in seen:
            raise InvalidInputError(f"point {x} lists vertex {vertex_key(v)} twice")
        seen.add(v)


def pou_from_json(obj: dict, space: FiniteMetricSpace) -> PartitionOfUnity:
    """The pou of a parsed pou file, read in one pass into flat rows.

    The first fault in file order is named: a point's repeated vertex is
    looked for at the end of its row, or before naming a later fault in it.
    """
    entries = obj.get("entries")
    if not isinstance(entries, dict):
        raise InvalidInputError("pou file needs an 'entries' object")
    ids, counts, verts, weights = [], [], [], []
    seen, parsed = bytearray(space.n), {}  # parsed: vertex key text -> vertex
    for key, pairs in entries.items():
        if not _plain_decimal(key):
            raise InvalidInputError(f"point id {key!r} is not a plain decimal")
        x = int(key)
        if not (0 <= x < space.n):
            raise InvalidInputError(f"pou references unknown point id {x}")
        if seen[x]:
            raise InvalidInputError(f"pou assigns point {x} twice")
        seen[x] = 1
        start = len(verts)
        try:
            for vk, w in pairs:
                v = parsed.get(vk) if type(vk) is str else None
                if v is None:
                    v = _vertex(vk, x)
                    parsed[vk] = v
                verts.append(v)
                if type(w) is not float:
                    if isinstance(w, bool) or not isinstance(w, (int, float)):
                        raise InvalidInputError(f"weight {w!r} of point {x} is not a JSON number")
                    try:
                        w = float(w)
                    except OverflowError:
                        raise InvalidInputError(
                            f"weight {w!r} of point {x} is too large for a float") from None
                weights.append(w)
        except (InvalidInputError, TypeError, ValueError, OverflowError):
            _no_repeat(x, verts[start:])  # an earlier entry's fault comes first
            raise
        if len(verts) - start > 1:
            _no_repeat(x, verts[start:])
        ids.append(x)
        counts.append(len(verts) - start)
    return PartitionOfUnity._from_rows(space, ids, counts, verts, weights)


def load_pou(path: Union[str, Path], space: FiniteMetricSpace) -> PartitionOfUnity:
    return _load(path, pou_from_json, space)


# ---------------------------------------------------------------------------
# trees
# ---------------------------------------------------------------------------

def tree_to_json(tree: DecompositionTree) -> dict:
    obj = tree.to_json()
    obj["v"] = SCHEMA_VERSION
    return obj


def load_tree(path: Union[str, Path]) -> DecompositionTree:
    return _load(path, DecompositionTree.from_json)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def report_to_json(report_dict: dict) -> dict:
    out = dict(report_dict)
    out["v"] = SCHEMA_VERSION
    return out


def claims_from_json(obj: dict) -> Tuple[float, float]:
    """(epsilon, bound) that a certificate report claims."""
    eps, bound = as_float(obj["epsilon"], "epsilon"), as_float(obj["bound"], "bound")
    if not (math.isfinite(eps) and math.isfinite(bound)):
        raise InvalidInputError(f"report claims epsilon {eps!r} and bound {bound!r}")
    return eps, bound


def load_claims(path: Union[str, Path]) -> Tuple[float, float]:
    return _load(path, claims_from_json)
