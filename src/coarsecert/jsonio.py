"""Versioned JSON artifacts: spaces, partitions of unity, trees, reports.

All files are UTF-8 JSON with a schema version field "v": 1, written with
sorted keys and a trailing newline so identical runs produce byte-identical
files.  Weights round-trip exactly: they are emitted through Python's
shortest-exact float representation (17 significant digits suffice and are
never exceeded).  Infinity and NaN are not JSON (RFC 8259), so writing one
raises ValueError; a report field with no finite value is written as null.

A file is read in one pass over its text (_read), never as one JSON tree.
The reader walks the top-level object itself and decodes each value with
json's own scanner, repeated keys refused, except the values that a loader
streams one item at a time (_Cursor):

- a pou's "entries": each point's row is checked as it is decoded, into
  flat arrays of point ids, row lengths and weights and a list of
  vertices, which become the pou's CSR arrays once the text is dropped;
- a space's "data": a graph's [u, v, w] items go into one float64 table
  (_read_data), which load_graph checks as arrays;
- a tree's "nodes": each becomes a TreeNode as soon as it is read, its
  members taken from the text straight into an int64 array when they are
  digits and commas alone (_read_nodes).

Reports are small and decoded whole (load_json).  What json.loads would
refuse, the reader refuses too, and then asks json.loads for the message.
The faults of a file are named in this order:

1. the file cannot be read, or is not valid UTF-8 or JSON (a syntax error
   anywhere, or a repeated key), in json's own words;
2. the text is not a JSON object;
3. its "v" is not 1;
4. the first semantic fault in file order, such as a pou entry's.

A fault found while streaming stops the walk and is held until the text is
known to pass 1 to 3: the whole text is then parsed once more with
json.loads, which names any such fault first.  A file without a fault never
pays for that parse.
"""

from __future__ import annotations

import json
import math
import re
from array import array
from json.decoder import WHITESPACE, scanstring
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple, Union

import numpy as np

from .errors import CoarseCertError, InvalidInputError, required
from .metric import (
    ROW_BLOCK_CELLS,
    TABLE_CHUNK_CELLS,
    FiniteMetricSpace,
    as_float,
    as_int,
    load_graph,
    load_matrix,
    load_points,
    row_entries,
)
from .simplex import PartitionOfUnity, vertex_key

if TYPE_CHECKING:  # covers is imported by the tree functions that use it, so verify never loads it
    from .covers import DecompositionTree

SCHEMA_VERSION = 1
_FAULTS = (CoarseCertError, KeyError, IndexError, TypeError, ValueError, OverflowError)


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def save_json(path: Union[str, Path], obj: Union[dict, str]) -> None:
    """Write obj's canonical text, or obj itself if it is already text.

    The text is rendered before the file is opened, so a value that JSON
    cannot hold leaves no file behind, and it is encoded and written
    TABLE_CHUNK_CELLS characters at a time, never as one bytes copy.
    """
    text = obj if isinstance(obj, str) else dumps_canonical(obj)
    try:
        with open(path, "w", encoding="utf-8") as out:
            for lo in range(0, len(text), TABLE_CHUNK_CELLS):
                out.write(text[lo:lo + TABLE_CHUNK_CELLS])
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


# ---------------------------------------------------------------------------
# the reader
# ---------------------------------------------------------------------------

class _NotJson(Exception):
    """The text is not one JSON object with unique keys; json.loads names why."""


class _Held(Exception):
    """A semantic fault of a file whose text json.loads accepts: fault."""

    def __init__(self, fault: Exception):
        self.fault = fault


class _Cursor:
    """JSON text read one value, object key or array item at a time; pos is the next."""

    def __init__(self, text: str):
        self.text, self.pos = text, 0
        self._scan = json.JSONDecoder(object_pairs_hook=_unique_keys).scan_once

    def peek(self) -> str:
        """The next character past whitespace, or "" at the end of the text."""
        c = self.text[self.pos:self.pos + 1]
        if c and c in " \t\n\r":
            self.pos = WHITESPACE.match(self.text, self.pos).end()
            c = self.text[self.pos:self.pos + 1]
        return c

    def value(self):
        """The value at the cursor, decoded whole; the cursor moves past it."""
        self.peek()
        try:
            value, self.pos = self._scan(self.text, self.pos)
        except (StopIteration, ValueError):  # no value, a syntax error, a repeated key
            raise _NotJson from None
        return value

    def _open(self, opener: str, close: str) -> bool:
        """Step into the object or array at the cursor: True unless it is empty."""
        if self.peek() != opener:
            raise _NotJson
        self.pos += 1
        if self.peek() == close:
            self.pos += 1
            return False
        return True

    def _more(self, close: str) -> bool:
        """Step past the ',' after a member (True) or the closing bracket (False)."""
        c = self.peek()
        self.pos += 1
        if c == ",":
            return True
        if c != close:
            raise _NotJson
        return False

    def keys(self):
        """Each key of the object at the cursor, the cursor left at its value.

        The caller reads each value before asking for the next key.  A
        repeated key is not looked for here: the caller refuses it.
        """
        more = self._open("{", "}")
        while more:
            if self.peek() != '"':
                raise _NotJson
            try:
                key, self.pos = scanstring(self.text, self.pos + 1)
            except ValueError:
                raise _NotJson from None
            if self.peek() != ":":
                raise _NotJson
            self.pos += 1
            yield key
            more = self._more("}")

    def items(self, read: Callable = None):
        """Each item of the array at the cursor: read(self), or the item decoded whole."""
        more = self._open("[", "]")
        while more:
            yield read(self) if read else self.value()
            more = self._more("]")


def _read_text(path: Union[str, Path]) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except ValueError as exc:  # UnicodeDecodeError
        raise InvalidInputError(f"{path}: not valid JSON ({exc})") from None
    except OSError as exc:
        raise InvalidInputError(f"{path}: cannot read ({exc.strerror or exc})") from None


def _check_version(path, obj: dict) -> None:
    if obj.get("v") is True or obj.get("v") != SCHEMA_VERSION:  # true == 1 in Python
        raise InvalidInputError(f"{path}: unsupported schema version {obj.get('v')!r}")


def _walk(text: str, streams: Dict[str, Callable]) -> dict:
    """The top-level object of text: streams[key](cursor) reads key's value, if given."""
    cursor, obj = _Cursor(text), {}
    for key in cursor.keys():
        if key in obj:
            raise _NotJson
        read = streams.get(key)
        obj[key] = read(cursor) if read else cursor.value()
    if cursor.peek():
        raise _NotJson
    return obj


def _read(path: Union[str, Path], streams: Dict[str, Callable]) -> dict:
    """The top-level object of the file at path, its version checked (module docstring).

    A semantic fault that a stream raises comes out as _Held, once the
    text is known to be valid JSON with the right version.  Text that the
    walk refuses and json.loads reads is a bug of the walk.
    """
    text = _read_text(path)
    try:
        obj = _walk(text, streams)
    except _NotJson:
        held = None
    except _FAULTS as exc:
        held = exc
    else:
        _check_version(path, obj)
        return obj
    try:
        whole = json.loads(text, object_pairs_hook=_unique_keys)
    except ValueError as exc:  # JSONDecodeError, a duplicate key
        raise InvalidInputError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(whole, dict):
        raise InvalidInputError(f"{path}: expected a JSON object")
    _check_version(path, whole)
    if held is None:
        raise AssertionError(f"{path}: the reader refused a JSON object that json.loads reads")
    raise _Held(held)


def load_json(path: Union[str, Path]) -> dict:
    return _read(path, {})


def _load(path: Union[str, Path], from_json: Callable, *args, streams=None):
    """from_json(the object at path, *args), naming the file if a field is malformed.

    streams maps a key to the reader of its value (_walk); without them the
    file is read through load_json, the module global, so that a traced
    run times it as JSON parsing.  A missing key or a value of the wrong type,
    form or range is an input error, not a verification failure.  A library
    error, such as a metric axiom's, keeps its type and witness.
    """
    try:
        obj = _read(path, streams) if streams else load_json(path)
    except _Held as held:
        exc = held.fault
    else:
        try:
            return from_json(obj, *args)
        except _FAULTS as caught:
            exc = caught
    if isinstance(exc, CoarseCertError):
        exc.args = (f"{path}: {exc}",)
        raise exc
    raise InvalidInputError(
        f"{path}: malformed artifact ({type(exc).__name__}: {exc})") from None


# ---------------------------------------------------------------------------
# spaces
# ---------------------------------------------------------------------------

def space_to_json(kind: str, n: int, data, meta: dict = None) -> dict:
    return {"v": SCHEMA_VERSION, "kind": kind, "n": int(n), "data": data,
            "meta": meta or {}}


def _read_data(cursor: _Cursor):
    """A space's data: one (E, 3) float64 table where that is exactly what the file says.

    That is an array whose items are all [u, v, w] arrays of JSON numbers,
    no boolean among them (array("d") reads true as 1.0), and every
    endpoint below 2**53 in magnitude (a larger int may round as a float).
    Anything else, a cloud's object or most matrices' rows, is decoded
    whole, as load_json would, and the loaders name its faults.
    """
    start = cursor.pos
    if cursor.peek() == "[":
        flat = array("d")
        try:
            for item in cursor.items():
                if type(item) is not list or len(item) != 3:
                    break
                flat.extend(item)  # TypeError on a non-number, OverflowError past every float
            else:
                table = np.frombuffer(flat, dtype=np.float64).reshape(-1, 3)
                if (cursor.text.find("true", start, cursor.pos) < 0
                        and cursor.text.find("false", start, cursor.pos) < 0
                        and np.abs(table[:, :2]).max(initial=0.0) < 2.0 ** 53):
                    return table
        except (TypeError, OverflowError):
            pass
        cursor.pos = start
    return cursor.value()


def space_from_json(obj: dict) -> FiniteMetricSpace:
    """The space of a space file's object; its meta, which follows data, is checked last."""
    meta = obj.get("meta")
    space = _space_from_data(obj, meta if isinstance(meta, dict) else None)
    if meta is not None and not isinstance(meta, dict):
        raise InvalidInputError("space meta is not an object")
    return space


def _space_from_data(obj: dict, meta: Optional[dict]) -> FiniteMetricSpace:
    kind, data = obj.get("kind"), obj.get("data")
    if kind == "graph":  # load_graph checks n first
        return load_graph(obj.get("n", 0), data, meta=meta)
    n = as_int(obj.get("n", 0), "vertex count")
    if kind == "matrix":  # rows of 3 numbers come as a table (_read_data): the same numbers
        if not isinstance(data, (list, np.ndarray)):
            raise InvalidInputError("space data is not an array")
        if len(data) != n:
            raise InvalidInputError(f"matrix has {len(data)} rows but n is {n}")
        return load_matrix(data, meta=meta)
    if kind == "points":
        if not isinstance(data, dict):
            raise InvalidInputError("space data is not an object")
        coords = required(data, "coords", "points data")
        if not isinstance(coords, list):
            raise InvalidInputError("points coords is not an array")
        if len(coords) != n:
            raise InvalidInputError(f"points space has {len(coords)} points but n is {n}")
        return load_points(coords, required(data, "p", "points data"), meta=meta)
    raise InvalidInputError(f"unknown space kind {kind!r}")


def load_space(path: Union[str, Path]) -> FiniteMetricSpace:
    return _load(path, space_from_json, streams={"data": _read_data})


# ---------------------------------------------------------------------------
# partitions of unity
# ---------------------------------------------------------------------------

def pou_to_json(pou: PartitionOfUnity, space_ref: str = "") -> str:
    """The pou file's text: dumps_canonical of {"v", "space", "entries"}.

    entries maps each point id, as a string, to its row as [vertex key,
    weight] pairs in carrier order.  The text is rendered from the CSR
    arrays in blocks of ROW_BLOCK_CELLS/64 rows, in the order of the ids'
    strings (_string_order), and joined once, rather than built as that
    dict or as lists of every row; a non-finite weight is refused first.
    """
    if not np.isfinite(pou.weights).all():
        raise ValueError("Out of range float values are not JSON compliant")
    heads = [f'["{vertex_key(v)}",' for v in pou.carrier()]
    order, step = _string_order(pou.domain.ids), max(1, ROW_BLOCK_CELLS // 64)
    parts = ['{"entries":{']
    for lo in range(0, len(order), step):
        rows = order[lo:lo + step]
        kept, entries = row_entries(pou.indptr, rows)
        entries = entries[np.lexsort((pou.columns[entries],
                                      np.repeat(np.arange(len(rows)), np.diff(kept))))]
        cols, weights = pou.columns[entries].tolist(), pou.weights[entries].tolist()
        bounds = kept.tolist()
        parts.append(("," if lo else "") + ",".join([
            f'"{x}":[{",".join([f"{heads[j]}{w!r}]" for j, w in zip(cols[a:b], weights[a:b])])}]'
            for x, a, b in zip(pou.domain.ids[rows].tolist(), bounds, bounds[1:])]))
    parts.append(f'}},"space":{json.dumps(space_ref)},"v":{SCHEMA_VERSION}}}\n')
    return "".join(parts)


def _string_order(ids: np.ndarray) -> np.ndarray:
    """The positions of ids (non-negative, below 2**53) in the order of their decimal strings.

    That is the order sort_keys gives their keys.  Each id, padded on the
    right with zeros to the widest id's digits, compares as its string does,
    and of two equal after padding the shorter string, a prefix of the
    other, comes first.
    """
    powers = 10 ** np.arange(17, dtype=np.int64)
    digits = np.searchsorted(powers[1:], ids, side="right")  # each id's digits, less 1
    padded = powers[int(digits.max(initial=0)) - digits]
    padded *= ids
    return np.lexsort((digits, padded))


_NO_ENTRIES = "pou file needs an 'entries' object"


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


def _pou_rows(entries, space: FiniteMetricSpace) -> list:
    """PartitionOfUnity._from_rows' flat rows of (point key, row) pairs.

    Each pair is checked as it comes, and the point ids, row lengths and
    weights go into arrays.  The first fault in file order is named: a
    point's repeated vertex is looked for at the end of its row, or before
    naming a later fault in it.
    """
    ids, counts, verts, weights = array("q"), array("q"), [], array("d")
    seen, parsed = bytearray(space.n), {}  # parsed: vertex key text -> vertex
    for key, pairs in entries:
        if not _plain_decimal(key):
            raise InvalidInputError(f"point id {key!r} is not a plain decimal")
        x = int(key)
        if not (0 <= x < space.n):
            raise InvalidInputError(f"pou references unknown point id {x}")
        if seen[x]:  # or a repeated key, which the reader then names
            raise InvalidInputError(f"pou assigns point {x} twice")
        seen[x] = 1
        if type(pairs) is not list:
            raise InvalidInputError(f"point {x}'s row is not an array")
        start = len(verts)
        try:
            for pair in pairs:
                if type(pair) is not list or len(pair) != 2:
                    raise InvalidInputError(f"entry #{len(verts) - start} of point {x} "
                                            f"is not a [vertex, weight] pair")
                vk, w = pair
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
        except InvalidInputError:
            _no_repeat(x, verts[start:])  # an earlier entry's fault comes first
            raise
        if len(verts) - start > 1:
            _no_repeat(x, verts[start:])
        ids.append(x)
        counts.append(len(verts) - start)
    return [ids, counts, verts, weights]


def load_pou(path: Union[str, Path], space: FiniteMetricSpace) -> PartitionOfUnity:
    """The pou of a pou file, its entries checked as they are read.

    The rows are built into a pou once the text is read and dropped.
    """
    def entries(cursor: _Cursor) -> list:
        if cursor.peek() != "{":
            raise InvalidInputError(_NO_ENTRIES)
        return _pou_rows(((key, cursor.value()) for key in cursor.keys()), space)

    def from_rows(obj: dict) -> PartitionOfUnity:
        if "entries" not in obj:
            raise InvalidInputError(_NO_ENTRIES)
        return PartitionOfUnity._from_rows(space, obj.pop("entries"))

    return _load(path, from_rows, streams={"entries": entries})


# ---------------------------------------------------------------------------
# trees
# ---------------------------------------------------------------------------

def tree_to_json(tree: DecompositionTree) -> str:
    """The tree file's text: dumps_canonical of tree.to_json() with "v".

    It is rendered a node at a time, a node's members from their id array
    in blocks of ROW_BLOCK_CELLS/64, and joined once, so no list of every
    member is built.
    """
    def text(value) -> str:
        return dumps_canonical(value)[:-1]

    step = max(1, ROW_BLOCK_CELLS // 64)
    parts = [f'{{"arity":{text(list(tree.arity))},"m":{text(tree.m)},"nodes":[']
    for k, nd in enumerate(tree.nodes):
        parts.append(f'{"," if k else ""}{{"families":{text([list(fam) for fam in nd.families])},'
                     f'"id":{text(nd.id)},"level":{text(nd.level)},"members":[')
        ids = nd.members.ids
        parts += [("," if lo else "") + ",".join(map(str, ids[lo:lo + step].tolist()))
                  for lo in range(0, len(ids), step)]
        parts.append("]}")
    parts.append(f'],"radii":{text(list(tree.radii))},"v":{SCHEMA_VERSION}}}\n')
    return "".join(parts)


# a members array of digits and commas alone, as the writer lays it out, and
# what makes such text no list of JSON integers: an empty item, a leading zero
_DIGITS = re.compile(r"\[[0-9,]*\]")
_LEADING_ZERO = re.compile(r",0[0-9]")


def _read_nodes(cursor: _Cursor) -> list:
    """A tree's nodes, each turned into a TreeNode (node_from_json) as soon as it is read."""
    if cursor.peek() != "[":
        raise InvalidInputError("tree nodes is not an array")
    from .covers import node_from_json
    return [node_from_json(k, nd) for k, nd in enumerate(cursor.items(_read_node))]


def _read_node(cursor: _Cursor):
    """The value at the cursor, decoded as json would, except a node's members (_plain_ids)."""
    if cursor.peek() != "{":
        return cursor.value()
    node = {}
    for key in cursor.keys():
        if key in node:
            raise _NotJson
        found = _DIGITS.match(cursor.text, cursor.pos) if key == "members" else None
        ids = None if found is None else _plain_ids(cursor.text[found.start() + 1:found.end() - 1])
        if ids is None:
            node[key] = cursor.value()
        else:
            node[key], cursor.pos = ids, found.end()
    return node


def _plain_ids(text: str):
    """The int64 array of text, digits and commas, if json reads it as integers below 2**53.

    That is when no item is empty or starts with a zero it does not end
    with; a number past 2**53 (or past int64, which np.fromstring clamps)
    gives None too, and json decodes it and the reader names it.
    """
    if (",," in text or text[:1] == "," or text[-1:] == "," or _LEADING_ZERO.search(text)
            or (text[:1] == "0" and text[1:2].isdigit())):
        return None
    ids = np.fromstring(text, dtype=np.int64, sep=",")
    return ids if not ids.size or ids.max() < 2 ** 53 else None


def load_tree(path: Union[str, Path]) -> DecompositionTree:
    from .covers import DecompositionTree
    return _load(path, DecompositionTree.from_json, streams={"nodes": _read_nodes})


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def report_to_json(report_dict: dict) -> dict:
    out = dict(report_dict)
    out["v"] = SCHEMA_VERSION
    return out


def claims_from_json(obj: dict) -> Tuple[float, float]:
    """(epsilon, bound) that a certificate report claims."""
    eps = as_float(required(obj, "epsilon", "report"), "epsilon")
    bound = as_float(required(obj, "bound", "report"), "bound")
    if not (math.isfinite(eps) and math.isfinite(bound)):
        raise InvalidInputError(f"report claims epsilon {eps!r} and bound {bound!r}")
    return eps, bound


def load_claims(path: Union[str, Path]) -> Tuple[float, float]:
    return _load(path, claims_from_json)
