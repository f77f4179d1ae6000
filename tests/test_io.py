import json

import numpy as np
import pytest

from locc import cli, io
from locc.core import OneWayProtocol, Povm, WeightedStates
from locc.errors import FileFormatError
from locc.graphs import CliqueCover, Graph


def test_complex_parsing_accepts_numbers_and_pairs():
    assert io.as_complex(2, "x") == 2 + 0j
    assert io.as_complex([1, -1], "x") == 1 - 1j
    with pytest.raises(FileFormatError):
        io.as_complex("nope", "x")
    with pytest.raises(FileFormatError):
        io.as_complex([1, 2, 3], "x")


def test_complex_parsing_rejects_non_finite_numbers(tmp_path, capsys):
    for bad in (float("nan"), [0, float("inf")], [1e400, 0], 10**400):
        with pytest.raises(FileFormatError, match=r"x\[3\]"):
            io.as_complex(bad, "x[3]")
    # the JSON literal NaN in a product file: bad input, no clique cover
    path = str(tmp_path / "nan.json")
    io.write_json(
        path,
        {"kind": "product", "dA": 2, "dB": 2, "states": [{"a": [float("nan"), 0], "b": [1, 0]}]},
    )
    with pytest.raises(FileFormatError, match=r"states\[0\]\.a\[0\]"):
        io.load_state_set_file(path)
    assert cli.main(["cc", path, "--side", "A"]) == 4
    assert capsys.readouterr().out == ""


def test_indices_must_be_integers(tmp_path, capsys):
    path = str(tmp_path / "g.json")
    for edge in (["a", 1], [float("nan"), 1], [0.5, 1], [True, 0]):
        io.write_json(path, {"kind": "graph", "vertices": 2, "edges": [edge]})
        with pytest.raises(FileFormatError, match=r"edges\[0\]"):
            io.load_graph_or_state_set(path)
        assert cli.main(["cc", path]) == 4
    assert capsys.readouterr().out == ""

    product = {"graph": {"vertices": 2, "edges": [[0, 1]]}, "povm": [io.matrix_json(np.eye(2))]}
    for cover in ([["x", 1]], [[0, 1.5]]):
        io.write_json(path, {"kind": "product_protocol", **product, "cover": cover})
        with pytest.raises(FileFormatError, match=r"cover\[0\]"):
            io.load_protocol_file(path)
    one_way = {"alice_povm": [io.matrix_json(np.eye(2))], "bob_povms": [[io.matrix_json(np.eye(2))]]}
    for row in ([0, 0, 0.5], [0, float("nan"), 1], ["0", 0, None]):
        io.write_json(path, {"kind": "one_way_protocol", **one_way, "outcome_map": [row]})
        with pytest.raises(FileFormatError, match=r"outcome_map\[0\]"):
            io.load_protocol_file(path)
    io.write_json(path, {"kind": "one_way_protocol", **one_way, "outcome_map": [[0, 0, None]]})
    assert io.load_protocol_file(path).protocol.outcome_map == {(0, 0): None}


def test_json_value_roundtrips():
    m = np.array([[1 + 2j, 0], [3, -1j]])
    assert np.array_equal(io.as_matrix(io.matrix_json(m), "m"), m)
    v = np.array([1j, 2, -3.5])
    assert np.array_equal(io.as_ket(io.ket_json(v), "v"), v)


def test_state_set_file_max_entangled(tmp_path):
    path = str(tmp_path / "s.json")
    x = [[0, 1], [1, 0]]
    io.write_json(path, {"kind": "max_entangled", "d": 2, "unitaries": [np.eye(2).tolist(), x]})
    sfile = io.load_state_set_file(path)
    assert sfile.kind == "max_entangled" and not sfile.is_product
    assert np.array_equal(sfile.unitaries[1], np.array(x, dtype=complex))
    states = sfile.state_set()
    kets = np.array(states.kets)
    assert len(states) == 2 and np.abs(np.triu(kets.conj() @ kets.T, 1)).max() < 1e-12


def test_state_set_file_pauli_labels(tmp_path):
    path = str(tmp_path / "p.json")
    io.write_json(path, {"kind": "pauli_labels", "n": 2, "labels": ["II", "XY"]})
    sfile = io.load_state_set_file(path)
    assert len(sfile.unitaries) == 2
    assert sfile.unitaries[0].shape == (4, 4)
    io.write_json(path, {"kind": "pauli_labels", "n": 2, "labels": ["X"]})
    with pytest.raises(FileFormatError):
        io.load_state_set_file(path)


def test_state_set_file_permutations(tmp_path):
    path = str(tmp_path / "perm.json")
    io.write_json(path, {"kind": "permutations", "d": 3, "perms": [[0, 1, 2], [1, 2, 0]]})
    sfile = io.load_state_set_file(path)
    assert sfile.perms == [[0, 1, 2], [1, 2, 0]]
    assert np.allclose(sfile.unitaries[1][:, 0], [0, 1, 0])  # P|0> = |1>
    io.write_json(path, {"kind": "permutations", "d": 3, "perms": [[0, 0, 1]]})
    with pytest.raises(FileFormatError):
        io.load_state_set_file(path)


def test_state_set_file_product(tmp_path):
    path = str(tmp_path / "prod.json")
    io.write_json(
        path,
        {
            "kind": "product",
            "dA": 2,
            "dB": 2,
            "states": [{"a": [1, 0], "b": [1, 0]}, {"a": [0, 1], "b": [0, 1]}],
        },
    )
    sfile = io.load_state_set_file(path)
    assert sfile.is_product
    pset = sfile.product_set()
    assert (pset.dA, pset.dB, len(pset)) == (2, 2, 2)
    full = sfile.state_set()
    assert np.allclose(full.kets[1], [0, 0, 0, 1])


def test_load_rejects_malformed_files(tmp_path):
    path = str(tmp_path / "bad.json")
    with open(path, "w") as fh:
        fh.write("{not json")
    with pytest.raises(FileFormatError):
        io.load_state_set_file(path)
    with open(path, "w") as fh:
        fh.write('{"kind": "max_entangled"}')  # no schema
    with pytest.raises(FileFormatError):
        io.load_state_set_file(path)
    io.write_json(path, {"kind": "unheard_of"})
    with pytest.raises(FileFormatError):
        io.load_state_set_file(path)
    with pytest.raises(FileFormatError):
        io.load_state_set_file(str(tmp_path / "missing.json"))


def test_graph_file_roundtrip(tmp_path):
    path = str(tmp_path / "g.json")
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    io.write_json(path, io.graph_json(g))
    assert io.load_graph_or_state_set(path) == g
    io.write_json(path, {"kind": "graph", "vertices": -1, "edges": []})
    with pytest.raises(FileFormatError):
        io.load_graph_or_state_set(path)


def test_protocol_file_kinds(tmp_path):
    path = str(tmp_path / "c.json")

    io.write_json(path, {"kind": "separating_vector", "vector": io.ket_json([1, 1j])})
    pfile = io.load_protocol_file(path)
    assert np.array_equal(pfile.vector, [1, 1j])

    io.write_json(path, {"kind": "refuting_block", "m": 2, "n": 1})
    assert io.load_protocol_file(path).block == (2, 1)

    io.write_json(
        path,
        {
            "kind": "witness_states",
            "states": [io.ket_json([1, 0]), io.ket_json([0, 1])],
            "weights": [1, 1],
        },
    )
    ws = io.load_protocol_file(path).weighted_states
    assert isinstance(ws, WeightedStates) and ws.weights == (1.0, 1.0)

    io.write_json(path, {"kind": "witness_isometry", "w": io.matrix_json(np.eye(2))})
    assert np.array_equal(io.load_protocol_file(path).isometry, np.eye(2))

    io.write_json(
        path,
        {
            "kind": "product_protocol",
            "graph": {"vertices": 2, "edges": [[0, 1]]},
            "cover": [[0, 1]],
            "povm": [io.matrix_json(np.eye(2))],
        },
    )
    pfile = io.load_protocol_file(path)
    assert isinstance(pfile.cover, CliqueCover) and isinstance(pfile.povm, Povm)
    assert pfile.graph.has_edge(0, 1)

    io.write_json(path, {"kind": "telepathy"})
    with pytest.raises(FileFormatError):
        io.load_protocol_file(path)


def test_one_way_protocol_file_roundtrip(tmp_path, bell_pair_protocol):
    _, protocol = bell_pair_protocol
    path = str(tmp_path / "proto.json")
    io.write_json(path, io.protocol_json(protocol))
    loaded = io.load_protocol_file(path).protocol
    assert isinstance(loaded, OneWayProtocol)
    assert loaded.outcome_map == protocol.outcome_map
    for a, b in zip(loaded.alice_povm, protocol.alice_povm):
        assert np.array_equal(a, b)
    loaded.validate(2, 2)


@pytest.mark.parametrize(
    "body, field",
    [
        ({"kind": "permutations", "d": 2, "perms": [[True, False], [0.0, 1.0]]}, "perms[0]"),
        ({"kind": "permutations", "d": 2, "perms": [[0, 1], [1.0, 0.0]]}, "perms[1]"),
        ({"kind": "permutations", "d": True, "perms": [[0]]}, '"d"'),
        ({"kind": "pauli_labels", "n": True, "labels": ["X", "I"]}, '"n"'),
        ({"kind": "max_entangled", "d": 1.0, "unitaries": [[[1]]]}, '"d"'),
        ({"kind": "product", "dA": True, "dB": 1, "states": [{"a": [1], "b": [1]}]}, '"dA"'),
        ({"kind": "product", "dA": 1, "dB": 1.0, "states": [{"a": [1], "b": [1]}]}, '"dB"'),
        ({"kind": "graph", "vertices": True, "edges": []}, '"vertices"'),
    ],
)
def test_integer_fields_reject_booleans_and_floats(tmp_path, capsys, body, field):
    path = str(tmp_path / "s.json")
    io.write_json(path, body)
    with pytest.raises(FileFormatError) as exc:
        io.load_graph_or_state_set(path)
    assert f"{path}: {field}: expected an integer" in str(exc.value)
    assert cli.main(["cc" if body["kind"] == "graph" else "decide", path]) == 4
    assert capsys.readouterr() == ("", f"error: {exc.value}\n")


def test_refuting_block_sizes_must_be_integers(tmp_path):
    path = str(tmp_path / "c.json")
    for m, n, field in ((True, 1, '"m"'), (2, 1.0, '"n"'), (2, 0, '"n" must be a positive integer')):
        io.write_json(path, {"kind": "refuting_block", "m": m, "n": n})
        with pytest.raises(FileFormatError, match=field):
            io.load_protocol_file(path)


def _per_entry(monkeypatch):
    """Route ``as_ket`` / ``as_matrix`` through the per-entry parser only."""
    monkeypatch.setattr(io, "_as_pairs", lambda obj, ndim: None)


def test_array_parsing_matches_the_per_entry_path(monkeypatch):
    rng = np.random.default_rng(31)
    kets, matrices = [], []
    for d in (1, 2, 5, 16):
        kets.append(io.ket_json(rng.standard_normal(d) + 1j * rng.standard_normal(d)))
        kets.append([[int(a), int(b)] for a, b in rng.integers(-3, 4, size=(d, 2))])
        matrices.append(io.matrix_json(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))))
        matrices.append(io.matrix_json(np.eye(d)))
    kets += [[[True, 0], [0.5, False]], [[-0.0, -0.0]], [[2**62 + 1, 0]], [[1, 0], [0, 1]]]
    matrices += [[[[1, 0]]], [[[True, 0], [0, -1.5]], [[2, 3], [0.25, 0]]]]
    fast = [io.as_ket(k, "k") for k in kets] + [io.as_matrix(m, "m") for m in matrices]
    _per_entry(monkeypatch)
    slow = [io.as_ket(k, "k") for k in kets] + [io.as_matrix(m, "m") for m in matrices]
    for a, b in zip(fast, slow):
        assert a.dtype == b.dtype == complex and np.array_equal(a, b)
        assert np.array_equal(np.signbit(a.real), np.signbit(b.real))
        assert np.array_equal(np.signbit(a.imag), np.signbit(b.imag))


_MALFORMED_KETS = [
    ([[1, 0], ["a", 0]], "expected [re, im], got ['a', 0]"),
    ([[1, 0], ["1", 0]], "expected [re, im], got ['1', 0]"),  # a number only if forced
    ([[1, 0], [float("nan"), 0]], "[nan, 0] is not a finite number"),
    ([[1, 0], [0, float("inf")]], "[0, inf] is not a finite number"),
    ([[1, 0], [1e400, 0]], "[inf, 0] is not a finite number"),  # how JSON reads 1e400
    ([[1, 0], [10**400, 0]], f"[{10**400}, 0] is not a finite number"),
    ([[1, 0], [0, 1, 2]], "expected [re, im], got [0, 1, 2]"),
    ([[1, 0], [None, 0]], "expected [re, im], got [None, 0]"),
]


@pytest.mark.parametrize(
    "ket, msg",
    _MALFORMED_KETS,
    ids=["string", "numeric-string", "nan", "infinity", "1e400", "huge-int", "extra", "null"],
)
def test_malformed_entries_keep_their_messages(monkeypatch, ket, msg):
    for per_entry in (False, True):
        if per_entry:
            _per_entry(monkeypatch)
        with pytest.raises(FileFormatError) as exc:
            io.as_ket(ket, "v")
        assert str(exc.value) == f"v[1]: {msg}"
        with pytest.raises(FileFormatError) as exc:
            io.as_matrix([[[1, 0], [0, 0]], ket], "m")
        assert str(exc.value) == f"m[1][1]: {msg}"


@pytest.mark.parametrize(
    "matrix, msg",
    [
        ([[[1, 0], [0, 0]], [[1, 0]]], "m: rows have unequal lengths"),
        ([[[1, 0]], []], "m[1]: expected a non-empty array of complex entries"),
        ([[1, 0], [1]], "m: rows have unequal lengths"),
    ],
    ids=["ragged", "empty-row", "ragged-reals"],
)
def test_malformed_matrices_keep_their_messages(monkeypatch, matrix, msg):
    for per_entry in (False, True):
        if per_entry:
            _per_entry(monkeypatch)
        with pytest.raises(FileFormatError) as exc:
            io.as_matrix(matrix, "m")
        assert str(exc.value) == msg


def test_bare_reals_and_pairs_may_mix(monkeypatch):
    ket, matrix = [1, [0, 1], 2.5], [[1, 0], [[0, 1], [2, 0]]]
    fast = io.as_ket(ket, "v"), io.as_matrix(matrix, "m")
    _per_entry(monkeypatch)
    slow = io.as_ket(ket, "v"), io.as_matrix(matrix, "m")
    assert np.array_equal(fast[0], [1, 1j, 2.5]) and np.array_equal(fast[0], slow[0])
    assert np.array_equal(fast[1], [[1, 0], [1j, 2]]) and np.array_equal(fast[1], slow[1])


def test_ket_and_matrix_json_give_the_per_entry_floats():
    rng = np.random.default_rng(12)
    m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    m[0, 0], m[1, 1] = complex(-0.0, 0.0), complex(0.0, -0.0)
    per_entry = [[[complex(z).real, complex(z).imag] for z in row] for row in m]
    assert json.dumps(io.matrix_json(m)) == json.dumps(per_entry)
    assert json.dumps(io.ket_json(m[1])) == json.dumps(per_entry[1])
    assert io.ket_json([1, 0]) == [[1.0, 0.0], [0.0, 0.0]]
    assert all(type(x) is float for pair in io.ket_json(np.arange(3)) for x in pair)


def _matrices(obj):
    """Every matrix of ``[re, im]`` pairs inside ``obj``."""
    if isinstance(obj, dict):
        obj = list(obj.values())
    if not isinstance(obj, list):
        return []
    try:
        if isinstance(obj[0][0][0], float):
            return [obj]
    except (IndexError, KeyError, TypeError):
        pass
    return [m for item in obj for m in _matrices(item)]


def test_json_pieces_join_to_json_dumps_at_most_a_matrix_at_a_time(tmp_path):
    rng = np.random.default_rng(8)

    def matrix(rows, cols):
        return io.matrix_json(rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols)))

    protocol = {
        "kind": "one_way_protocol",
        "alice_povm": [matrix(2, 2), matrix(2, 2)],
        "bob_povms": [[matrix(5, 5), matrix(5, 5), matrix(5, 5)], [matrix(4, 4)], []],
        "outcome_map": [[0, 0, 1], [0, 1, None]],
        "v1": [0, 2],
    }
    record = {
        "command": "decide",
        "detail": 'blocks: [(2, 1)] "quoted" é',
        "tol": 1e-09,
        "verified": True,
        "criterion": None,
        "empty": {},
        "none": [],
        "by_index": {1: "a", 2: [1.5]},
        "states": [io.ket_json(rng.standard_normal(3)) for _ in range(3)],
        "certificate": protocol,
        "nested": {"deeper": [[protocol["bob_povms"]]]},
    }
    pieces = list(io.json_pieces(record))
    assert "".join(pieces) == json.dumps(record)
    largest = max(len(json.dumps(m)) for m in _matrices(record))
    assert max(map(len, pieces)) <= largest
    assert sum(piece.startswith("[[[") for piece in pieces) >= len(_matrices(record))
    assert "".join(io.json_pieces({"seed": np.int64(7), "x": [np.float64(0.5)]})) == '{"seed": 7, "x": [0.5]}'

    path = str(tmp_path / "record.json")
    io.write_json(path, record)
    with open(path) as fh:
        assert fh.read() == json.dumps({"schema": io.SCHEMA, **record}) + "\n"
