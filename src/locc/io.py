"""JSON file formats for state sets, graphs, protocols and certificates.

All files are JSON objects with a top-level ``"schema": "locc/1"``.  Complex
numbers are two-element arrays ``[re, im]``; kets are arrays of complex
numbers; matrices are arrays of rows.

State-set kinds::

    {"schema": "locc/1", "kind": "max_entangled", "d": 2, "unitaries": [M, ...]}
    {"schema": "locc/1", "kind": "pauli_labels", "n": 2, "labels": ["II", "XX"]}
    {"schema": "locc/1", "kind": "permutations", "d": 3, "perms": [[0,1,2], ...]}
    {"schema": "locc/1", "kind": "product", "dA": 2, "dB": 3,
     "states": [{"a": ket, "b": ket}, ...]}

Permutations are in image form (``perm[i]`` is where ``i`` goes); the matrix
``P`` acts as ``P|i> = |perm[i]>``.  Graph files use ``{"kind": "graph",
"vertices": n, "edges": [[u, v], ...]}``.  Protocol/certificate kinds are
``separating_vector``, ``refuting_block``, ``witness_states``,
``witness_isometry``, ``one_way_protocol`` and ``product_protocol``.
"""

from __future__ import annotations

import cmath
import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .algebra import build_operator_system, permutation_matrix, validated_unitaries
from .core import DEFAULT_TOL, OneWayProtocol, Povm, StateSet, WeightedStates
from .errors import FileFormatError
from .graphs import CliqueCover, Graph, ProductStateSet
from .pauli import build_pauli_system, from_label, to_dense

SCHEMA = "locc/1"

STATE_KINDS = ("max_entangled", "pauli_labels", "permutations", "product")
PROTOCOL_KINDS = (
    "separating_vector",
    "refuting_block",
    "witness_states",
    "witness_isometry",
    "one_way_protocol",
    "product_protocol",
)


def _fail(where: str, msg: str):
    raise FileFormatError(f"{where}: {msg}")


def as_complex(obj, where: str) -> complex:
    parts = obj if isinstance(obj, list) and len(obj) == 2 else (obj,)
    for x in parts:
        if not isinstance(x, (int, float)):
            _fail(where, f"expected [re, im], got {obj!r}")
    try:
        z = complex(*parts)
    except OverflowError:  # an integer beyond the float range
        z = complex("inf")
    if not cmath.isfinite(z):  # the JSON literals NaN and Infinity, or 1e400
        _fail(where, f"{obj!r} is not a finite number")
    return z


def as_index(obj, where: str) -> int:
    if type(obj) is not int:  # JSON true/false parse as bool, a subclass of int
        _fail(where, f"expected an integer, got {obj!r}")
    return obj


def _count(obj: dict, key: str, path: str, least: int = 1) -> int:
    """The integer field ``key`` of ``obj``, at least ``least``."""
    value = as_index(obj.get(key), f'{path}: "{key}"')
    if value < least:
        _fail(path, f'"{key}" must be a {"positive" if least else "non-negative"} integer')
    return value


def _as_pairs(obj, ndim: int) -> np.ndarray | None:
    """``obj`` as a complex array of ``ndim - 1`` axes if it is one of finite
    ``[re, im]`` pairs, else None.

    One ``np.asarray`` reads the whole array; the dtype is inspected rather
    than forced, since forcing it would read the string ``"1"`` as a number.
    """
    try:
        arr = np.asarray(obj)
    except (ValueError, TypeError):  # ragged, or pairs mixed with bare reals
        return None
    if arr.dtype.kind not in "biuf" or arr.ndim != ndim or arr.shape[-1] != 2:
        return None
    arr = arr.astype(np.float64, copy=False)
    if not np.isfinite(arr).all():
        return None
    return arr.view(np.complex128)[..., 0]


def as_ket(obj, where: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        _fail(where, "expected a non-empty array of complex entries")
    fast = _as_pairs(obj, 2)
    if fast is not None:
        return fast
    return np.array([as_complex(x, f"{where}[{i}]") for i, x in enumerate(obj)])


def as_matrix(obj, where: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        _fail(where, "expected a non-empty array of rows")
    fast = _as_pairs(obj, 3)
    if fast is not None:
        return fast
    rows = [as_ket(r, f"{where}[{i}]") for i, r in enumerate(obj)]
    if any(r.size != rows[0].size for r in rows):
        _fail(where, "rows have unequal lengths")
    return np.stack(rows)


def _pairs_json(a) -> list:
    """``a`` as nested lists with each complex entry an ``[re, im]`` pair of floats."""
    a = np.asarray(a, dtype=complex)
    return np.stack((a.real, a.imag), -1).tolist()


def ket_json(v) -> list:
    return _pairs_json(np.ravel(v))


def matrix_json(m) -> list:
    return _pairs_json(m)


def _load(path: str) -> dict:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise FileFormatError(f"{path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(obj, dict):
        _fail(path, "top level must be an object")
    if obj.get("schema") != SCHEMA:
        _fail(path, f'missing or unsupported "schema" (expected "{SCHEMA}")')
    return obj


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _nesting(obj) -> int:
    """How deep lists nest along first entries: 3 for a matrix of ``[re, im]`` pairs."""
    depth = 0
    while isinstance(obj, list) and obj:
        obj, depth = obj[0], depth + 1
    return depth


def json_pieces(obj):
    """Yield the text of ``json.dumps(obj)`` in pieces of at most one matrix each.

    Dicts and the lists above matrix level are walked here; everything
    below is encoded by one ``json.dumps`` call, i.e. by the C encoder, so a
    multi-megabyte protocol record is never held as one string.
    """
    if isinstance(obj, dict) and all(isinstance(key, str) for key in obj):
        yield "{"
        for i, (key, value) in enumerate(obj.items()):
            yield f"{', ' if i else ''}{json.dumps(key)}: "
            yield from json_pieces(value)
        yield "}"
    elif isinstance(obj, list) and _nesting(obj) > 3:
        yield "["
        for i, item in enumerate(obj):
            if i:
                yield ", "
            yield from json_pieces(item)
        yield "]"
    else:
        yield json.dumps(obj, default=_json_default)


def dump_json(obj, fh) -> None:
    """Write ``obj`` to ``fh`` as one line of JSON, a piece at a time."""
    fh.writelines(json_pieces(obj))
    fh.write("\n")


def write_json(path: str, obj: dict) -> None:
    with open(path, "w") as fh:
        dump_json({"schema": SCHEMA, **obj}, fh)


# ---------------------------------------------------------------------------
# state sets
# ---------------------------------------------------------------------------


@dataclass
class StateSetFile:
    """Parsed content of a state-set file."""

    kind: str
    matrices: list = field(default_factory=list)  # max_entangled only
    perms: list = field(default_factory=list)  # image lists, permutations only
    labels: list = field(default_factory=list)  # pauli_labels only
    paulis: list = field(default_factory=list)  # the labels as PauliOps
    pairs: list = field(default_factory=list)  # product only
    dA: int | None = None
    dB: int | None = None

    @property
    def is_product(self) -> bool:
        return self.kind == "product"

    @cached_property
    def unitaries(self) -> list:
        """Dense unitaries; a label or permutations file builds them on first use."""
        if self.paulis:
            return [to_dense(op) for op in self.paulis]
        if self.perms:
            return [permutation_matrix(p) for p in self.perms]
        return self.matrices

    def operator_system(self, tol: float = DEFAULT_TOL):
        """The validated ``S0`` of a unitary family: over GF(2) for a label file."""
        if self.paulis:
            return build_pauli_system(self.paulis)
        return build_operator_system(self.unitaries, tol)

    def product_set(self, tol: float = DEFAULT_TOL) -> ProductStateSet:
        if not self.is_product:
            raise FileFormatError(f"kind {self.kind!r} holds no product states")
        return ProductStateSet.from_pairs(self.pairs, tol)

    def state_set(self, tol: float = DEFAULT_TOL) -> StateSet:
        """The states, validated as ``decide`` validates them, without building ``S0``."""
        if self.is_product:
            pset = self.product_set(tol)
            pset.require_orthogonal(tol)
            return pset.to_state_set()
        return StateSet.from_unitaries(validated_unitaries(self.unitaries, tol), tol)


def load_state_set_file(path: str) -> StateSetFile:
    """Load and validate any of the four state-set kinds."""
    return _as_state_set(_load(path), path)


def load_graph_or_state_set(path: str) -> Graph | StateSetFile:
    """A graph file as a ``Graph``; any other kind as a state-set file."""
    obj = _load(path)
    if obj.get("kind") == "graph":
        return _as_graph(obj, path)
    return _as_state_set(obj, path)


def _as_state_set(obj: dict, path: str) -> StateSetFile:
    kind = obj.get("kind")
    if kind not in STATE_KINDS:
        _fail(path, f'"kind" must be one of {STATE_KINDS}, got {kind!r}')

    if kind == "max_entangled":
        d = _count(obj, "d", path)
        mats = obj.get("unitaries")
        if not isinstance(mats, list) or not mats:
            _fail(path, '"unitaries" must be a non-empty array')
        us = [as_matrix(m, f"{path}: unitaries[{i}]") for i, m in enumerate(mats)]
        if any(u.shape != (d, d) for u in us):
            _fail(path, f"all unitaries must be {d}x{d}")
        return StateSetFile(kind=kind, matrices=us)

    if kind == "pauli_labels":
        n = _count(obj, "n", path)
        labels = obj.get("labels")
        if not isinstance(labels, list) or not labels:
            _fail(path, '"labels" must be a non-empty array')
        if any(not isinstance(s, str) or len(s) != n for s in labels):
            _fail(path, f"every label must be a string of length n={n}")
        return StateSetFile(kind=kind, labels=list(labels), paulis=[from_label(s) for s in labels])

    if kind == "permutations":
        d = _count(obj, "d", path)
        perms = obj.get("perms")
        if not isinstance(perms, list) or not perms:
            _fail(path, '"perms" must be a non-empty array')
        images = []
        for i, p in enumerate(perms):
            if not isinstance(p, list) or len(p) != d:
                _fail(path, f"perms[{i}] is not a permutation of 0..{d - 1}")
            image = [as_index(x, f"{path}: perms[{i}]") for x in p]
            if sorted(image) != list(range(d)):
                _fail(path, f"perms[{i}] is not a permutation of 0..{d - 1}")
            images.append(image)
        return StateSetFile(kind=kind, perms=images)

    # product
    dA, dB = _count(obj, "dA", path), _count(obj, "dB", path)
    states = obj.get("states")
    if not isinstance(states, list) or not states:
        _fail(path, '"states" must be a non-empty array')
    pairs = []
    for i, st in enumerate(states):
        if not isinstance(st, dict) or "a" not in st or "b" not in st:
            _fail(path, f'states[{i}] must be an object with "a" and "b"')
        a = as_ket(st["a"], f"{path}: states[{i}].a")
        b = as_ket(st["b"], f"{path}: states[{i}].b")
        if a.size != dA or b.size != dB:
            _fail(path, f"states[{i}] has wrong local dimensions")
        pairs.append((a, b))
    return StateSetFile(kind=kind, pairs=pairs, dA=dA, dB=dB)


def _as_graph(obj: dict, where: str) -> Graph:
    n = _count(obj, "vertices", where, least=0)
    edges = obj.get("edges", [])
    if not isinstance(edges, list) or any(
        not isinstance(e, list) or len(e) != 2 for e in edges
    ):
        _fail(where, '"edges" must be an array of [u, v] pairs')
    return Graph.from_edges(
        n, [[as_index(x, f"{where}: edges[{i}]") for x in e] for i, e in enumerate(edges)]
    )


def graph_json(g: Graph) -> dict:
    return {"kind": "graph", "vertices": g.vertex_count, "edges": [list(e) for e in sorted(g.edges)]}


# ---------------------------------------------------------------------------
# protocols / certificates
# ---------------------------------------------------------------------------


@dataclass
class ProtocolFile:
    """Parsed content of a protocol or certificate file."""

    kind: str
    vector: np.ndarray | None = None
    block: tuple[int, int] | None = None
    weighted_states: WeightedStates | None = None
    isometry: np.ndarray | None = None
    protocol: OneWayProtocol | None = None
    graph: Graph | None = None
    cover: CliqueCover | None = None
    povm: Povm | None = None


def load_protocol_file(path: str) -> ProtocolFile:
    obj = _load(path)
    kind = obj.get("kind")
    if kind not in PROTOCOL_KINDS:
        _fail(path, f'"kind" must be one of {PROTOCOL_KINDS}, got {kind!r}')

    if kind == "separating_vector":
        return ProtocolFile(kind=kind, vector=as_ket(obj.get("vector"), f"{path}: vector"))

    if kind == "refuting_block":
        return ProtocolFile(kind=kind, block=(_count(obj, "m", path), _count(obj, "n", path)))

    if kind == "witness_states":
        states = obj.get("states")
        weights = obj.get("weights")
        if not isinstance(states, list) or not states:
            _fail(path, '"states" must be a non-empty array')
        if not isinstance(weights, list) or len(weights) != len(states):
            _fail(path, '"weights" must match "states" in length')
        kets = [as_ket(s, f"{path}: states[{i}]") for i, s in enumerate(states)]
        return ProtocolFile(kind=kind, weighted_states=WeightedStates(kets, weights))

    if kind == "witness_isometry":
        return ProtocolFile(kind=kind, isometry=as_matrix(obj.get("w"), f"{path}: w"))

    if kind == "one_way_protocol":
        alice = obj.get("alice_povm")
        bob = obj.get("bob_povms")
        omap = obj.get("outcome_map")
        if not isinstance(alice, list) or not alice:
            _fail(path, '"alice_povm" must be a non-empty array')
        if not isinstance(bob, list) or len(bob) != len(alice):
            _fail(path, '"bob_povms" needs one entry per Alice outcome')
        a_els = [as_matrix(m, f"{path}: alice_povm[{i}]") for i, m in enumerate(alice)]
        b_els = [
            [as_matrix(m, f"{path}: bob_povms[{k}][{j}]") for j, m in enumerate(bs)]
            for k, bs in enumerate(bob)
        ]
        if not isinstance(omap, list):
            _fail(path, '"outcome_map" must be an array of [k, j, index-or-null]')
        mapping = {}
        for i, row in enumerate(omap):
            if not isinstance(row, list) or len(row) != 3:
                _fail(path, f"outcome_map[{i}] must be [k, j, index-or-null]")
            k, j, t = row
            where = f"{path}: outcome_map[{i}]"
            mapping[(as_index(k, where), as_index(j, where))] = None if t is None else as_index(t, where)
        return ProtocolFile(kind=kind, protocol=OneWayProtocol(a_els, b_els, mapping))

    # product_protocol
    graph_obj = obj.get("graph")
    cover_obj = obj.get("cover")
    povm_obj = obj.get("povm")
    if not isinstance(graph_obj, dict):
        _fail(path, '"graph" must be an object')
    graph = _as_graph(graph_obj, f"{path}: graph")
    if not isinstance(cover_obj, list) or not cover_obj or any(not isinstance(p, list) for p in cover_obj):
        _fail(path, '"cover" must be a non-empty array of vertex arrays')
    cover = CliqueCover([[as_index(v, f"{path}: cover[{i}]") for v in p] for i, p in enumerate(cover_obj)])
    if not isinstance(povm_obj, list) or not povm_obj:
        _fail(path, '"povm" must be a non-empty array of matrices')
    povm = Povm([as_matrix(m, f"{path}: povm[{i}]") for i, m in enumerate(povm_obj)])
    return ProtocolFile(kind=kind, graph=graph, cover=cover, povm=povm)


def protocol_json(p: OneWayProtocol) -> dict:
    return {
        "kind": "one_way_protocol",
        "alice_povm": [matrix_json(a) for a in p.alice_povm],
        "bob_povms": [[matrix_json(b) for b in bs] for bs in p.bob_povms],
        "outcome_map": [[k, j, t] for (k, j), t in sorted(p.outcome_map.items())],
    }
