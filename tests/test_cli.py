import json
import warnings

import numpy as np
import pytest

from locc import algebra, cli, core, graphs, io, pauli

W = np.exp(2j * np.pi / 3)
PAULIS = [np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]]


def _write_unitaries(path, mats):
    mats = [np.asarray(m) for m in mats]
    io.write_json(
        path,
        {"kind": "max_entangled", "d": len(mats[0]), "unitaries": [io.matrix_json(m) for m in mats]},
    )
    return path


def _write_ix(tmp_path):
    return _write_unitaries(str(tmp_path / "ix.json"), [np.eye(2), [[0, 1], [1, 0]]])


def _write_weyl(tmp_path):
    """I, cyclic shift and clock on C^3: orthogonal but criterion-free."""
    shift = np.zeros((3, 3), dtype=complex)
    for i in range(3):
        shift[(i + 1) % 3, i] = 1
    clock = np.diag([1, W, W**2])
    return _write_unitaries(str(tmp_path / "weyl.json"), [np.eye(3), shift, clock])


def _decide_json(capsys, *argv):
    code = cli.main(["decide", *argv, "--json"])
    return code, json.loads(capsys.readouterr().out)


def test_decide_distinguishable(tmp_path, capsys):
    code, record = _decide_json(capsys, _write_ix(tmp_path))
    assert code == 0
    assert record["verdict"] == "distinguishable"
    assert record["criterion"] == "schmidt"
    assert record["certificate"]["kind"] == "separating_vector"
    assert record["schema"] == "locc/1"


def test_decide_indistinguishable_permutations(tmp_path, capsys):
    # permutations that agree at a point give overlapping states: bad input
    # under every criterion and in verify, with one message naming the first
    # overlapping pair in row-major order, as a permutations file and as the
    # same matrices; in the second family states 0 and 2 agree at two
    # points, states 0 and 1 at one
    path = str(tmp_path / "perm.json")
    dense = str(tmp_path / "dense.json")
    cert = str(tmp_path / "cert.json")
    for perms in ([[0, 1, 2], [0, 2, 1]], [[0, 1, 2, 3], [0, 2, 3, 1], [1, 0, 2, 3]]):
        d = len(perms[0])
        io.write_json(path, {"kind": "permutations", "d": d, "perms": perms})
        _write_unitaries(dense, [algebra.permutation_matrix(p) for p in perms])
        io.write_json(cert, {"kind": "witness_states", "states": [io.ket_json(k) for k in np.eye(d)], "weights": [1] * d})
        message = "error: states 0 and 1 overlap: |tr(U_1^* U_0)|/d > tol\n"
        for states in (path, dense):
            for argv in (
                *(["decide", states, "--json", "--criterion", c] for c in ("auto", "permutation", "schmidt", "algebra")),
                ["verify", states, cert],
            ):
                assert cli.main(argv) == 4, argv
                assert capsys.readouterr() == ("", message), argv
    # a tol that admits an overlap of 1/d takes the states as orthogonal,
    # and the permutation criterion, which needs derangements, does not apply
    io.write_json(path, {"kind": "permutations", "d": 3, "perms": [[0, 1, 2], [0, 2, 1]]})
    assert cli.main(["decide", path, "--tol", "0.5"]) == 2


def test_decide_permutation_certificate_verifies(tmp_path, capsys):
    path = str(tmp_path / "perm.json")
    io.write_json(
        path,
        {"kind": "permutations", "d": 3, "perms": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]},
    )
    code, record = _decide_json(capsys, path)
    assert code == 0 and record["criterion"] == "permutation"
    cert_path = str(tmp_path / "cert.json")
    io.write_json(cert_path, record["certificate"])
    assert cli.main(["verify", path, cert_path]) == 0


def test_decide_criterion_not_applicable(tmp_path, capsys):
    code, record = _decide_json(capsys, _write_weyl(tmp_path))
    assert code == 2
    assert record["verdict"] == "criterion_not_applicable"
    assert record["certificate"] is None


def test_decide_explicit_criterion_can_be_inconclusive(tmp_path, capsys):
    path = _write_unitaries(str(tmp_path / "full.json"), PAULIS)
    assert cli.main(["decide", path, "--criterion", "schmidt"]) == 2
    assert cli.main(["decide", path, "--criterion", "algebra"]) == 1


def test_decide_criterion_mismatch_is_an_error(tmp_path, capsys):
    assert cli.main(["decide", _write_ix(tmp_path), "--criterion", "qubit-sender"]) == 4
    assert "error" in capsys.readouterr().err


def test_decide_product_auto(tmp_path, capsys):
    path = str(tmp_path / "prod.json")
    io.write_json(
        path,
        {
            "kind": "product",
            "dA": 2,
            "dB": 2,
            "states": [
                {"a": [1, 0], "b": [1, 0]},
                {"a": [1, 0], "b": [0, 1]},
                {"a": [0, 1], "b": [[0.7071067811865476, 0], [0.7071067811865476, 0]]},
                {"a": [0, 1], "b": [[0.7071067811865476, 0], [-0.7071067811865476, 0]]},
            ],
        },
    )
    code, record = _decide_json(capsys, path)
    assert code == 0
    assert record["criterion"] == "qubit-sender"
    assert record["certificate"]["kind"] == "one_way_protocol"
    assert record["certificate"]["v1"] == [0, 1]

    cert_path = str(tmp_path / "proto.json")
    io.write_json(cert_path, record["certificate"])
    assert cli.main(["verify", path, cert_path]) == 0

    # a cover part holding a vertex outside the graph fails the certificate
    capsys.readouterr()
    povm = [io.matrix_json(np.diag([1, 0])), io.matrix_json(np.diag([0, 1]))]
    graph = {"vertices": 4, "edges": [[0, 1], [2, 3]]}
    for cover, code in (([[0, 1], [2, 3]], 0), ([[0, 1], [2, 3, -1]], 1)):
        io.write_json(cert_path, {"kind": "product_protocol", "graph": graph, "cover": cover, "povm": povm})
        assert cli.main(["verify", path, cert_path]) == code
    assert capsys.readouterr().err == ""


def test_gen_then_decide_lattice(tmp_path, capsys):
    out = str(tmp_path / "lat.json")
    assert cli.main(["gen", out, "--family", "lattice", "--n", "2", "--k", "2"]) == 0
    capsys.readouterr()  # flush the gen status line before parsing decide JSON
    sfile = io.load_state_set_file(out)
    assert sfile.labels == ["II", "IZ", "ZI", "ZZ", "XX"]
    code, record = _decide_json(capsys, out)
    assert code == 1
    assert record["certificate"] == {
        "schema": "locc/1",
        "kind": "refuting_block",
        "m": 2,
        "n": 1,
    }

    # the embedded certificate is itself a valid file for `verify`: dump it
    # verbatim, no rewriting
    cert_path = str(tmp_path / "block.json")
    with open(cert_path, "w") as fh:
        json.dump(record["certificate"], fh)
    assert cli.main(["verify", out, cert_path]) == 0
    io.write_json(cert_path, {"kind": "refuting_block", "m": 3, "n": 1})
    assert cli.main(["verify", out, cert_path]) == 1


def test_gen_rejects_bad_params(capsys):
    assert cli.main(["gen", "/tmp/x.json", "--family", "lattice", "--n", "9", "--k", "1"]) == 4
    assert cli.main(["gen", "/tmp/x.json", "--family", "lattice", "--n", "2", "--k", "3"]) == 4


def test_verify_witness_states_via_files(tmp_path, capsys):
    states = _write_ix(tmp_path)
    cert = str(tmp_path / "ns.json")
    io.write_json(
        cert,
        {
            "kind": "witness_states",
            "states": [io.ket_json([1, 0]), io.ket_json([0, 1])],
            "weights": [1, 1],
        },
    )
    assert cli.main(["verify", states, cert]) == 0
    io.write_json(cert, {"kind": "witness_isometry", "w": io.matrix_json(np.eye(2))})
    assert cli.main(["verify", states, cert]) == 0
    # states of different lengths are bad input, not a failing certificate
    io.write_json(
        cert,
        {"kind": "witness_states", "states": [io.ket_json([1, 0]), io.ket_json([0, 1, 0])], "weights": [1, 1]},
    )
    assert cli.main(["verify", states, cert]) == 4
    assert capsys.readouterr().err.startswith("error:")


def test_verify_rejects_overlapping_states(tmp_path, capsys):
    # [I, I] gives two copies of one state: no certificate may prove them
    # distinguishable, nor is a verdict on them meaningful
    states = _write_unitaries(str(tmp_path / "ii.json"), [np.eye(2), np.eye(2)])
    cert = str(tmp_path / "cert.json")
    for body in (
        {"kind": "separating_vector", "vector": io.ket_json([1, 0])},
        {"kind": "refuting_block", "m": 2, "n": 1},
    ):
        io.write_json(cert, body)
        assert cli.main(["verify", states, cert]) == 4
        assert "overlap" in capsys.readouterr().err


def _write_products(path, pairs):
    states = [{"a": io.ket_json(a), "b": io.ket_json(b)} for a, b in pairs]
    io.write_json(path, {"kind": "product", "dA": len(pairs[0][0]), "dB": len(pairs[0][1]), "states": states})
    return path


_P0, _P1 = np.diag([1, 0]), np.diag([0, 1])
_CERTIFICATES = {
    "witness_states": {"kind": "witness_states", "states": [io.ket_json([1, 0]), io.ket_json([0, 1])], "weights": [1, 1]},
    "witness_isometry": {"kind": "witness_isometry", "w": io.matrix_json(np.eye(2))},
    "one_way_protocol": io.protocol_json(
        core.OneWayProtocol([_P0, _P1], [[_P0, _P1], [_P0, _P1]], {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0})
    ),
    "product_protocol": {
        "kind": "product_protocol",
        "graph": {"kind": "graph", "vertices": 2, "edges": []},
        "cover": [[0], [1]],
        "povm": [io.matrix_json(_P0), io.matrix_json(_P1)],
    },
}


@pytest.mark.parametrize(
    "family, kind",
    [
        ("overlapping", "witness_states"),
        ("overlapping", "witness_isometry"),
        ("overlapping", "one_way_protocol"),
        ("overlapping", "product_protocol"),
        ("overlapping_products", "one_way_protocol"),
        ("overlapping_qutrit_products", "one_way_protocol"),
        ("overlapping_product_triple", "one_way_protocol"),
        ("overlapping_product_triple", "witness_states"),
        ("overlapping_qutrit_product_triple", "one_way_protocol"),
        ("non_unitary", "one_way_protocol"),
    ],
)
def test_verify_rejects_bad_families_as_decide_does(tmp_path, capsys, family, kind):
    # every certificate kind exits 4 with the message decide gives, also
    # one that does not apply to the family, and a product family does so
    # for any sender dimension under any criterion
    path = str(tmp_path / "states.json")
    # in the triples, states 0 and 2 overlap by 0.32 (0.26 for dA = 3), and
    # the later pair 1 and 2 by twice as much: the first pair is named
    bob_mixed = [1, 2]
    message = "states 0 and 1 overlap: |<a_0|a_1><b_0|b_1>| > tol"
    if family == "overlapping":  # [I, I]: two copies of one state
        _write_unitaries(path, [np.eye(2), np.eye(2)])
        message = "states 0 and 1 overlap: |tr(U_1^* U_0)|/d > tol"
    elif family == "overlapping_products":
        _write_products(path, [([1, 0], [1, 0]), ([1, 0], [1, 1])])
    elif family == "overlapping_qutrit_products":  # |0>|0>, (|0>+|1>)|0> in C^3 (x) C^2
        _write_products(path, [([1, 0, 0], [1, 0]), ([1, 1, 0], [1, 0])])
    elif family == "overlapping_product_triple":
        _write_products(path, [([1, 0], [1, 0]), ([1, 0], [0, 1]), ([1, 1], bob_mixed)])
        message = "states 0 and 2 overlap: |<a_0|a_2><b_0|b_2>| > tol"
    elif family == "overlapping_qutrit_product_triple":
        _write_products(path, [([1, 0, 0], [1, 0]), ([1, 0, 0], [0, 1]), ([1, 1, 1], bob_mixed)])
        message = "states 0 and 2 overlap: |<a_0|a_2><b_0|b_2>| > tol"
    else:
        _write_unitaries(path, [np.eye(2), 2 * np.eye(2)])
        message = "unitaries[1] is not unitary within tol=1e-09"
    cert = str(tmp_path / "cert.json")
    io.write_json(cert, _CERTIFICATES[kind])
    assert cli.main(["decide", path]) == 4
    decided = capsys.readouterr()
    commands = [["verify", path, cert]]
    if "products" in family or family.endswith("triple"):
        commands.append(["decide", path, "--criterion", "qubit-sender"])
    for argv in commands:
        assert cli.main(argv) == 4
        assert capsys.readouterr() == decided
    assert decided == ("", f"error: {message}\n")


def test_qubit_sender_decide_warns_once(tmp_path, capsys):
    # Alice's factors 0 and 1 overlap by 3e-9, within a decade of tol; the
    # decide and the checks of its certificate share one thresholded graph
    path = _write_products(str(tmp_path / "near.json"), [([1, 0], np.eye(3)[0]), ([3e-9, 1], np.eye(3)[1]), ([1, 1], np.eye(3)[2])])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["decide", path, "--json"]) == 0
    assert [w.category for w in caught] == [UserWarning]
    assert "within a decade of tol" in str(caught[0].message)


@pytest.mark.parametrize(
    "mats",
    [
        [np.eye(2), [[0, 1], [1, 0]]],  # S0 closed and abelian
        [np.eye(3), np.roll(np.eye(3), 1, axis=0), np.diag([1, W, W**2])],  # not closed
        PAULIS,  # closed, not abelian
    ],
    ids=["ix", "weyl", "paulis"],
)
def test_each_command_builds_the_operator_system_once(tmp_path, capsys, monkeypatch, mats):
    builds = []
    quotient_system = algebra._quotient_system

    def counted(us):
        builds.append(len(us))
        return quotient_system(us)

    monkeypatch.setattr(algebra, "_quotient_system", counted)
    states = _write_unitaries(str(tmp_path / "s.json"), mats)
    cert = str(tmp_path / "vec.json")
    io.write_json(cert, {"kind": "separating_vector", "vector": io.ket_json(np.ones(len(mats[0])))})
    for argv in (
        ["decide", states],
        ["decide", states, "--criterion", "schmidt"],
        ["decide", states, "--criterion", "algebra"],
        ["verify", states, cert],
    ):
        builds.clear()
        assert cli.main(argv) in (0, 1, 2)
        assert len(builds) == 1, argv


def _write_labels(path, labels):
    io.write_json(path, {"kind": "pauli_labels", "n": len(labels[0]), "labels": labels})
    return path


def _count_dense_work(monkeypatch):
    """Record each ``pauli.to_dense`` and ``algebra._quotient_system`` call."""
    calls = []

    def counting(name, fn):
        def counted(*args):
            calls.append(name)
            return fn(*args)

        return counted

    to_dense = counting("to_dense", pauli.to_dense)
    for module in (pauli, io):
        monkeypatch.setattr(module, "to_dense", to_dense)
    monkeypatch.setattr(algebra, "_quotient_system", counting("S0", algebra._quotient_system))
    return calls


@pytest.mark.parametrize(
    "labels",
    [
        ["II", "XX"],  # closed and abelian
        ["IX", "II", "XI", "ZI"],  # not closed, not abelian
        ["II", "IZ", "ZI", "ZZ", "XX"],  # closed, not abelian, no separating vector
        ["III", "XII", "ZII", "YII"],  # closed, not abelian, a separating vector
    ],
    ids=["abelian", "not-closed", "refuted", "separated"],
)
def test_label_files_decide_over_gf2_as_their_dense_family(tmp_path, capsys, monkeypatch, labels):
    calls = _count_dense_work(monkeypatch)
    states = _write_labels(str(tmp_path / "labels.json"), labels)
    dense = _write_unitaries(str(tmp_path / "dense.json"), [pauli.to_dense(pauli.from_label(s)) for s in labels])
    cert = str(tmp_path / "cert.json")
    for criterion in ("auto", "schmidt", "algebra"):
        calls.clear()
        code, record = _decide_json(capsys, states, "--criterion", criterion)
        assert calls == [], criterion
        dense_code, dense_record = _decide_json(capsys, dense, "--criterion", criterion)
        for key in ("input", "kind", "timing_ms"):
            del record[key], dense_record[key]
        assert (code, record) == (dense_code, dense_record)
        if record["certificate"] is not None:
            io.write_json(cert, record["certificate"])
            calls.clear()
            assert cli.main(["verify", states, cert]) == 0
            assert calls == []
            capsys.readouterr()
    for body in (
        {"kind": "separating_vector", "vector": io.ket_json(np.ones(2 ** len(labels[0])))},
        {"kind": "refuting_block", "m": 2, "n": 1},
    ):
        io.write_json(cert, body)
        calls.clear()
        assert cli.main(["verify", states, cert]) == cli.main(["verify", dense, cert])
        assert calls == ["S0"]  # the dense file's run only


def test_decide_on_a_permutations_file_builds_no_matrix(tmp_path, capsys, monkeypatch):
    built = []

    def counted(image):
        built.append(image)
        return algebra.permutation_matrix(image)

    monkeypatch.setattr(io, "permutation_matrix", counted)
    path, cert = str(tmp_path / "perm.json"), str(tmp_path / "cert.json")
    io.write_json(path, {"kind": "permutations", "d": 3, "perms": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]})
    code, record = _decide_json(capsys, path)
    assert (code, built) == (0, [])
    io.write_json(path, {"kind": "permutations", "d": 3, "perms": [[0, 1, 2], [0, 2, 1]]})
    for argv, code in ((["decide", path], 4), (["decide", path, "--tol", "0.5"], 2)):
        assert (cli.main(argv), built) == (code, [])
    # checking a witness needs the matrices: one per permutation
    io.write_json(cert, record["certificate"])
    assert cli.main(["verify", path, cert, "--tol", "0.5"]) == 1
    assert built == [[0, 1, 2], [0, 2, 1]]


def test_witness_certificates_on_a_label_file_use_the_dense_family(tmp_path, monkeypatch):
    calls = _count_dense_work(monkeypatch)
    states = _write_labels(str(tmp_path / "ix.json"), ["I", "X"])
    cert = str(tmp_path / "ws.json")
    plus, minus = np.array([1, 1]) / np.sqrt(2), np.array([1, -1]) / np.sqrt(2)
    for kets, code in (([[1, 0], [0, 1]], 0), ([plus, minus], 1)):
        io.write_json(cert, {"kind": "witness_states", "states": [io.ket_json(k) for k in kets], "weights": [1, 1]})
        calls.clear()
        assert cli.main(["verify", states, cert]) == code
        assert calls == ["to_dense", "to_dense"]


def test_duplicate_labels_exit_4_naming_the_first_pair(tmp_path, capsys):
    states = _write_labels(str(tmp_path / "dup.json"), ["X", "Z", "X", "Z"])
    cert = str(tmp_path / "vec.json")
    io.write_json(cert, {"kind": "separating_vector", "vector": io.ket_json([1, 0])})
    message = "error: states 0 and 2 overlap: |tr(U_2^* U_0)|/d > tol\n"
    for argv in (
        ["decide", states],
        ["decide", states, "--criterion", "schmidt"],
        ["decide", states, "--criterion", "algebra"],
        ["verify", states, cert],
    ):
        assert cli.main(argv) == 4
        assert capsys.readouterr() == ("", message)


def test_yes_qubit_sender_decide_computes_each_gram_matrix_once(tmp_path, capsys, monkeypatch):
    grams = []
    overlaps = graphs._overlaps

    def counted(vecs):
        grams.append(len(vecs))
        return overlaps(vecs)

    monkeypatch.setattr(graphs, "_overlaps", counted)
    path = str(tmp_path / "prod.json")
    plus, minus = [[2**-0.5, 0], [2**-0.5, 0]], [[2**-0.5, 0], [-(2**-0.5), 0]]
    states = [{"a": [1, 0], "b": [1, 0]}, {"a": [1, 0], "b": [0, 1]}, {"a": [0, 1], "b": plus}, {"a": [0, 1], "b": minus}]
    io.write_json(path, {"kind": "product", "dA": 2, "dB": 2, "states": states})
    code, record = _decide_json(capsys, path)
    assert (code, record["certificate"]["kind"]) == (0, "one_way_protocol")
    assert grams == [4, 4]


def test_cc_on_graph_and_product_files(tmp_path, capsys):
    gpath = str(tmp_path / "c4.json")
    io.write_json(
        gpath, {"kind": "graph", "vertices": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]]}
    )
    assert cli.main(["cc", gpath, "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["cc"] == 4

    ppath = str(tmp_path / "prod.json")
    io.write_json(
        ppath,
        {
            "kind": "product",
            "dA": 2,
            "dB": 2,
            "states": [{"a": [1, 0], "b": [1, 0]}, {"a": [0, 1], "b": [1, 0]}],
        },
    )
    assert cli.main(["cc", ppath, "--side", "B", "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["cc"] == 1 and record["edges"] == [[0, 1]]
    for side in ("A", "Bbar"):
        assert cli.main(["cc", ppath, "--side", side, "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert (record["edges"], record["cc"], record["cover"]) == ([], 2, [[0], [1]])

    # a pauli_labels file is neither a graph nor a product set
    lpath = str(tmp_path / "lab.json")
    io.write_json(lpath, {"kind": "pauli_labels", "n": 1, "labels": ["X"]})
    assert cli.main(["cc", lpath]) == 4


def test_cc_reports_the_graph_parser_error(tmp_path, capsys):
    path = str(tmp_path / "bad.json")
    io.write_json(path, {"kind": "graph", "vertices": 3, "edges": [["a", 1]]})
    assert cli.main(["cc", path]) == 4
    assert capsys.readouterr().err == f"error: {path}: edges[0]: expected an integer, got 'a'\n"


def test_tolerance_resolution(tmp_path, capsys, monkeypatch):
    path = _write_ix(tmp_path)
    monkeypatch.setenv("LOCC_TOL", "not-a-number")
    assert cli.main(["decide", path]) == 4
    monkeypatch.setenv("LOCC_TOL", "1e-6")
    code, record = _decide_json(capsys, path)
    assert code == 0 and record["tol"] == 1e-6
    code, record = _decide_json(capsys, path, "--tol", "1e-8")
    assert record["tol"] == 1e-8  # the flag beats the environment

    # a negative or NaN tolerance is bad input for every kind, label files included
    labels = _write_labels(str(tmp_path / "labels.json"), ["I", "X"])
    for states in (path, labels):
        for tol in ("-1", "nan"):
            assert cli.main(["decide", states, "--tol", tol]) == 4
            assert capsys.readouterr().err == f"error: tolerance {float(tol)} is not a non-negative number\n"
    monkeypatch.setenv("LOCC_TOL", "-1e-9")
    assert cli.main(["verify", labels, labels]) == 4


def test_usage_errors_exit_4(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["decide"])  # missing the states file
    assert exc.value.code == 4
    with pytest.raises(SystemExit) as exc:
        cli.main(["nonsense"])
    assert exc.value.code == 4


def test_missing_file_exits_4(capsys):
    assert cli.main(["decide", "/does/not/exist.json"]) == 4
    assert "error" in capsys.readouterr().err
