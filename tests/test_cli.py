import json

import numpy as np
import pytest

from locc import algebra, cli, io

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
    # under every criterion, as for any other family
    path = str(tmp_path / "perm.json")
    io.write_json(
        path, {"kind": "permutations", "d": 3, "perms": [[0, 1, 2], [0, 2, 1]]}
    )
    for criterion in ("auto", "permutation", "schmidt", "algebra"):
        assert cli.main(["decide", path, "--json", "--criterion", criterion]) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")


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
