import json
import os
import re
import subprocess
import sys
import time
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest

import locc
from locc import cli, io
from locc.core import Decision, Povm
from locc.errors import (
    BadDimension,
    BadParams,
    DimensionMismatch,
    InvalidCertificate,
    InvalidPovm,
    NotOrthogonalStates,
    NotSpanning,
    TooLarge,
    VertexCountMismatch,
    ZeroVector,
)
from locc.graphs import (
    CliqueCover,
    Graph,
    ProductStateSet,
    clique_cover_number,
    complement,
    decide_qubit_sender,
    extract_qubit_protocol,
    graph_from_vectors,
    is_clique_cover,
    is_subgraph,
    minimum_clique_cover,
    validate_qubit_certificate,
    verify_product_protocol,
)
from locc.graphs import _maximal_cliques, _two_clique_assignment
from locc.oracles import haar_unitary, simulate_one_way_protocol

K0 = np.array([1, 0], dtype=complex)
K1 = np.array([0, 1], dtype=complex)

C4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def _gnp(seed: int, r: int, p: float) -> Graph:
    rng = np.random.default_rng(seed)
    return Graph.from_edges(r, [(u, v) for u in range(r) for v in range(u + 1, r) if rng.random() < p])


def _networkx_cliques(g: Graph) -> list[frozenset]:
    import networkx as nx

    gx = nx.Graph()
    gx.add_nodes_from(range(g.vertex_count))
    gx.add_edges_from(g.edges)
    return [frozenset(c) for c in nx.find_cliques(gx)]


def test_graph_basics():
    g = Graph.from_edges(3, [(1, 0), (1, 2)])
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 2)
    assert g.nbrs == (0b010, 0b101, 0b010)
    assert g.is_clique([0, 1]) and not g.is_clique([0, 1, 2])
    assert g.is_clique([])
    # vertices outside the graph are in no clique
    assert not Graph.from_edges(3, []).is_clique([5])
    assert not g.is_clique([-1]) and not g.has_edge(-1, 0) and not g.has_edge(0, 3)


def test_graph_rejects_bad_edges():
    with pytest.raises(BadParams):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(BadParams):
        Graph.from_edges(3, [(0, 3)])


def test_complement_and_subgraph():
    g = Graph.from_edges(4, [(0, 1)])
    cg = complement(g)
    assert (0, 1) not in cg.edges and len(cg.edges) == 5
    assert complement(cg) == g
    assert is_subgraph(g, complement(Graph.from_edges(4, [(2, 3)])))
    with pytest.raises(VertexCountMismatch):
        is_subgraph(g, Graph.from_edges(3, []))


def test_graph_from_vectors_small():
    vecs = [K0, K1, (K0 + K1) / np.sqrt(2)]
    g = graph_from_vectors(vecs)
    assert g.edges == frozenset({(0, 2), (1, 2)})
    # scale invariance
    assert graph_from_vectors([10 * v for v in vecs]) == g


def test_graph_from_vectors_exact_representations(vectors_for_graph):
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.4]
        g = Graph.from_edges(n, edges)
        assert graph_from_vectors(vectors_for_graph(g)) == g


def test_graph_from_vectors_warns_near_threshold():
    v = np.array([1, 5e-9], dtype=complex)
    with pytest.warns(UserWarning):
        g = graph_from_vectors([v, K1], tol=1e-9)
    assert g.has_edge(0, 1)
    # every borderline pair is listed, in (u, v) order
    near = [[1, 0, 0], [3e-9, 1, 0], [2e-9, 4e-9, 1]]
    with pytest.warns(UserWarning) as record:
        graph_from_vectors(near, tol=1e-9)
    listed = re.findall(r"\((\d),(\d)\)", str(record[0].message))
    assert listed == [("0", "1"), ("0", "2"), ("1", "2")]


def test_overlaps_match_the_pairwise_loop():
    rng = np.random.default_rng(23)
    # r crosses the byte boundaries of the packed neighbour masks
    for r in [1, 7, 8, 9, 16, 17] + rng.integers(1, 18, 24).tolist():
        d = int(rng.integers(1, 4))
        alice = rng.normal(size=(r, d)) + 1j * rng.normal(size=(r, d))
        # basis kets give exactly orthogonal pairs, random ones generic overlaps
        alice = np.where(rng.random((r, 1)) < 0.4, np.eye(d)[rng.integers(0, d, r)], alice)
        bob = np.where(rng.random((r, 1)) < 0.6, np.eye(2)[rng.integers(0, 2, r)], rng.normal(size=(r, 2)))
        s = ProductStateSet.from_pairs(zip(alice, bob))
        ip = {
            side: {(u, v): abs(np.vdot(vs[u], vs[v])) for u, v in combinations(range(r), 2)}
            for side, vs in (("a", s.alice), ("b", s.bob))
        }
        assert s.graph_alice().edges == {e for e, x in ip["a"].items() if x > 1e-9}
        assert s.graph_bob().edges == {e for e, x in ip["b"].items() if x > 1e-9}
        for g in (s.graph_alice(), s.graph_bob()):
            assert g == Graph.from_edges(r, g.edges)  # the masks are symmetric
        # the product overlaps the orthogonality check reads
        loop = max([ip["a"][e] * ip["b"][e] for e in ip["a"]], default=0.0)
        products = np.triu(s.alice_overlaps * s.bob_overlaps, 1).max(initial=0.0)
        assert products == pytest.approx(loop, rel=1e-12, abs=1e-15)
        first = next((e for e in ip["a"] if ip["a"][e] * ip["b"][e] > 1e-9), None)
        if first is None:
            s.require_orthogonal()
        else:
            with pytest.raises(NotOrthogonalStates, match=rf"^states {first[0]} and {first[1]} overlap"):
                s.require_orthogonal()


def _reference_is_clique(r: int, edges: set, vertices) -> bool:
    vs = sorted(set(vertices))
    return all(0 <= v < r for v in vs) and all(
        (u, v) in edges for i, u in enumerate(vs) for v in vs[i + 1 :]
    )


def _reference_is_clique_cover(r: int, edges: set, parts) -> bool:
    covered_vertices, covered_edges = set(), set()
    for part in parts:
        if not _reference_is_clique(r, edges, part):
            return False
        covered_vertices |= set(part)
        vs = sorted(part)
        covered_edges |= {(u, v) for i, u in enumerate(vs) for v in vs[i + 1 :]}
    return covered_vertices == set(range(r)) and edges <= covered_edges


@pytest.mark.parametrize("r", [0, 1, 7, 8, 9, 16, 17])
def test_masks_match_the_edge_set_reference(r):
    # the reference is the pairwise code over a set of (u, v) pairs, u < v,
    # that the neighbour masks replaced; r crosses the byte boundaries
    rng = np.random.default_rng(300 + r)
    pairs = list(combinations(range(r), 2))
    outside = [-1, r]
    for p in (0.0, 0.3, 0.7, 1.0):
        edges = {e for e in pairs if rng.random() < p}
        g = Graph.from_edges(r, [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges])
        assert g.vertex_count == r and g.edges == edges
        assert Graph.from_edges(r, g.edges) == g
        assert complement(g).edges == {e for e in pairs if e not in edges}
        for u, v in product(range(-1, r + 1), repeat=2):
            assert g.has_edge(u, v) == g.has_edge(v, u) == ((min(u, v), max(u, v)) in edges)

        other = {e for e in pairs if rng.random() < 0.5}
        sub = {e for e in edges if rng.random() < 0.7}
        for e1, e2 in ((edges, other), (other, edges), (sub, edges), (edges, sub)):
            assert is_subgraph(Graph.from_edges(r, e1), Graph.from_edges(r, e2)) == (e1 <= e2)

        cliques = [[v for v in range(r) if c >> v & 1] for c in _maximal_cliques(g.nbrs)]
        candidates = cliques + [c + [outside[i % 2]] for i, c in enumerate(cliques)]
        # random vertex sets, some holding -1 or r
        candidates += [rng.permutation(range(-1, r + 1))[: rng.integers(0, 5)].tolist() for _ in range(20)]
        for c in candidates:
            assert g.is_clique(c) == _reference_is_clique(r, edges, c), c

        covers = [
            [[v] for v in range(r)] + [list(e) for e in edges],
            cliques,
            cliques[1:],
            [[v] for v in range(r)],
            [c + [outside[i % 2]] if i == 0 else c for i, c in enumerate(cliques)],
            [c + [int(rng.integers(0, r))] if r and i == 0 else c for i, c in enumerate(cliques)],
        ]
        for parts in covers:
            expected = _reference_is_clique_cover(r, edges, parts)
            assert is_clique_cover(g, CliqueCover(parts)) == expected, parts


def test_nan_factor_raises_instead_of_a_verdict():
    nan_ket = np.array([np.nan, 1], dtype=complex)
    with pytest.raises(ZeroVector):
        ProductStateSet.from_pairs([(nan_ket, K0), (K1, K1)])
    # built directly, without from_pairs' normalization
    with pytest.raises(NotOrthogonalStates):
        decide_qubit_sender(ProductStateSet(alice=(nan_ket, K1), bob=(K0, K1)))


def test_is_clique_cover():
    assert is_clique_cover(C4, CliqueCover([(0, 1), (2, 3), (1, 2), (0, 3)]))
    # vertex coverage alone is not enough: edges (1,2) and (0,3) are missed
    assert not is_clique_cover(C4, CliqueCover([(0, 1), (2, 3)]))
    # parts must be cliques
    assert not is_clique_cover(C4, CliqueCover([(0, 1, 2), (2, 3), (0, 3)]))
    # every vertex must appear, even isolated ones
    lone = Graph.from_edges(2, [])
    assert not is_clique_cover(lone, CliqueCover([(0,)]))
    assert is_clique_cover(lone, CliqueCover([(0,), (1,)]))
    # parts may hold only vertices of the graph
    assert not is_clique_cover(lone, CliqueCover([(0,), (1,), (-1,)]))


@pytest.mark.parametrize(
    "graph,expected",
    [
        (Graph.from_edges(1, []), 1),
        (Graph.from_edges(4, []), 4),
        (Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)]), 1),
        (Graph.from_edges(3, [(0, 1), (1, 2)]), 2),
        (C4, 4),
        (Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)]), 5),
        (Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)]), 2),
    ],
)
def test_minimum_clique_cover_known_values(graph, expected):
    cover = minimum_clique_cover(graph)
    assert is_clique_cover(graph, cover)
    assert len(cover.parts) == expected
    assert clique_cover_number(graph) == expected


def test_minimum_clique_cover_is_minimal_brute_force():
    import networkx as nx

    rng = np.random.default_rng(31)
    for _ in range(15):
        n = int(rng.integers(2, 6))
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
        g = Graph.from_edges(n, edges)
        cover = minimum_clique_cover(g)
        assert is_clique_cover(g, cover)
        # no smaller family of maximal cliques covers vertices and edges
        gx = nx.Graph()
        gx.add_nodes_from(range(n))
        gx.add_edges_from(g.edges)
        maximal = [tuple(c) for c in nx.find_cliques(gx)]
        for k in range(1, len(cover.parts)):
            for parts in combinations(maximal, k):
                assert not is_clique_cover(g, CliqueCover(parts))


def test_import_leaves_networkx_out():
    src = str(Path(locc.__file__).resolve().parents[1])
    code = "import sys, locc.cli; print('networkx' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_maximal_cliques_match_networkx():
    rng = np.random.default_rng(41)
    for _ in range(200):
        r = int(rng.integers(1, 21))
        g = _gnp(int(rng.integers(1 << 30)), r, float(rng.choice([0.1, 0.3, 0.5, 0.7, 0.9])))
        ours = [frozenset(v for v in range(r) if c >> v & 1) for c in _maximal_cliques(g.nbrs)]
        assert len(set(ours)) == len(ours)
        assert set(ours) == set(_networkx_cliques(g))


def test_minimum_clique_cover_on_twenty_vertex_random_graphs():
    from scipy.optimize import LinearConstraint, milp

    graphs = [_gnp(seed, 20, p) for p in (0.3, 0.5, 0.7, 0.9) for seed in range(4)]
    start = time.perf_counter()
    covers = [minimum_clique_cover(g) for g in graphs]
    assert time.perf_counter() - start < 5
    for g, cover in zip(graphs, covers):
        assert is_clique_cover(g, cover)
        # comparing with every smaller family of maximal cliques, as the
        # brute-force test does, would take over 1e8 families on each of
        # these graphs; a MILP over networkx's maximal cliques is exact here
        cliques = _networkx_cliques(g)
        rows = [frozenset({v}) for v in range(20)] + [frozenset(e) for e in g.edges]
        a = np.array([[row <= c for c in cliques] for row in rows], dtype=float)
        res = milp(np.ones(len(cliques)), constraints=LinearConstraint(a, lb=1),
                   integrality=np.ones(len(cliques)), bounds=(0, 1))
        assert res.success and len(cover) == round(res.fun)


def test_minimum_clique_cover_size_guard():
    with pytest.raises(TooLarge):
        minimum_clique_cover(Graph.from_edges(21, []))


def test_product_state_set_construction():
    s = ProductStateSet.from_pairs([(3 * K0, K0), (K1, 2 * K1)])
    assert (s.dA, s.dB, len(s)) == (2, 2, 2)
    for a in s.alice:
        assert np.linalg.norm(a) == pytest.approx(1)
    with pytest.raises(ZeroVector):
        ProductStateSet.from_pairs([(0 * K0, K0)])
    with pytest.raises(BadParams):
        ProductStateSet.from_pairs([])


def test_product_state_set_to_state_set(four_product_states):
    s = four_product_states.to_state_set()
    assert (s.dA, s.dB) == (2, 2)
    assert np.allclose(s.kets[2], np.kron(K1, (K0 + K1) / np.sqrt(2)))
    kets = np.array(s.kets)
    assert np.abs(np.triu(kets.conj() @ kets.T, 1)).max() < 1e-12


def test_verify_product_protocol_accepts_the_witness(qutrit_sender_instance):
    states, graph, cover, povm = qutrit_sender_instance
    assert verify_product_protocol(states, graph, cover, povm) is True


def test_verify_product_protocol_rejects_tampering(qutrit_sender_instance):
    states, graph, cover, povm = qutrit_sender_instance
    # a graph missing a G_A edge is not sandwiched
    smaller = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert verify_product_protocol(states, smaller, cover, povm) is False
    # a graph with a G_B edge is not sandwiched either
    bigger = Graph.from_edges(4, list(graph.edges) + [(0, 2)])
    assert verify_product_protocol(states, bigger, cover, povm) is False
    # dropping a part breaks the one-element-per-part pairing
    with pytest.raises(DimensionMismatch):
        verify_product_protocol(
            states, graph, CliqueCover(cover.parts[:3]), povm
        )
    # pairing parts with the wrong POVM elements breaks annihilation
    swapped = Povm([povm.elements[i] for i in (1, 0, 2, 3)])
    assert verify_product_protocol(states, graph, cover, swapped) is False
    # a rescaled POVM no longer resolves the identity
    with pytest.raises(InvalidPovm):
        verify_product_protocol(
            states, graph, cover, Povm([2 * q for q in povm.elements])
        )


def test_verify_product_protocol_requires_spanning_and_orthogonal():
    flat = ProductStateSet.from_pairs(
        [(np.array([1, 0, 0], dtype=complex), x) for x in (K0, K1)]
    )
    g2 = Graph.from_edges(2, [(0, 1)])
    with pytest.raises(NotSpanning):
        verify_product_protocol(flat, g2, CliqueCover([(0, 1)]), Povm([np.eye(3)]))
    plus = (K0 + K1) / np.sqrt(2)
    skew = ProductStateSet.from_pairs([(K0, K0), (K1, K1), (plus, K0)])
    g3 = Graph.from_edges(3, [(0, 2), (1, 2)])
    with pytest.raises(NotOrthogonalStates):
        verify_product_protocol(skew, g3, CliqueCover([(0, 2), (1,)]), Povm([np.eye(2)]))


def test_decide_qubit_sender_yes_instance(four_product_states):
    verdict = decide_qubit_sender(four_product_states)
    assert verdict.decision is Decision.DISTINGUISHABLE
    assert verdict.graph_alice.edges == frozenset({(0, 1), (2, 3)})
    assert verdict.graph_bob.edges == frozenset({(0, 2), (0, 3), (1, 2), (1, 3)})
    cert = verdict.certificate
    assert (sorted(cert.v1), sorted(cert.v2)) == ([0, 1], [2, 3])
    validate_qubit_certificate(four_product_states, cert)
    protocol = extract_qubit_protocol(four_product_states, cert)
    assert simulate_one_way_protocol(four_product_states.to_state_set(), protocol)


def test_decide_qubit_sender_no_instance(five_product_states):
    verdict = decide_qubit_sender(five_product_states)
    assert verdict.decision is Decision.INDISTINGUISHABLE
    assert verdict.certificate is None
    assert len(verdict.graph_alice.edges) == 7
    assert verdict.graph_bob.edges == frozenset({(0, 1), (0, 2), (3, 4)})


def test_decide_qubit_sender_forced_shared_vertex():
    # state 2 must be measured under both of Alice's outcomes
    plus = (K0 + K1) / np.sqrt(2)
    s = ProductStateSet.from_pairs([(K0, K0), (K1, K0), (plus, K1)])
    verdict = decide_qubit_sender(s)
    assert verdict.decision is Decision.DISTINGUISHABLE
    cert = verdict.certificate
    assert (sorted(cert.v1), sorted(cert.v2)) == ([0, 2], [1, 2])
    protocol = extract_qubit_protocol(s, cert)
    assert simulate_one_way_protocol(s.to_state_set(), protocol)


def test_decide_qubit_sender_bob_alone():
    s = ProductStateSet.from_pairs([(K0, K0), (K0, K1)])
    verdict = decide_qubit_sender(s)
    assert verdict.decision is Decision.DISTINGUISHABLE
    cert = verdict.certificate
    assert sorted(cert.v1) == sorted(cert.v2) == [0, 1]
    protocol = extract_qubit_protocol(s, cert)
    assert simulate_one_way_protocol(s.to_state_set(), protocol)


def test_two_clique_assignment_is_the_first_valid_one():
    # the search returns the lexicographically least assignment under the
    # choice order V1-only, V2-only, both
    rng = np.random.default_rng(11)
    for _ in range(60):
        r = int(rng.integers(1, 9))
        ga = _gnp(int(rng.integers(1 << 30)), r, 0.4)
        gb = Graph.from_edges(r, [e for e in complement(ga).edges if rng.random() < 0.4])
        first = None
        for assign in product((1, 2, 3), repeat=r):
            parts = [{v for v in range(r) if assign[v] & k} for k in (1, 2)]
            if all(not ({u, v} <= p) for u, v in gb.edges for p in parts) and all(
                any({u, v} <= p for p in parts) for u, v in ga.edges
            ):
                first = tuple(frozenset(p) for p in parts)
                break
        assert _two_clique_assignment(ga, gb) == first


def test_decide_qubit_sender_many_states():
    # Bob's factors are orthonormal, so Bob alone tells the states apart
    rng = np.random.default_rng(5)
    r = 1100
    alice = rng.normal(size=(r, 2)) + 1j * rng.normal(size=(r, 2))
    verdict = decide_qubit_sender(ProductStateSet.from_pairs(zip(alice, np.eye(r))))
    assert verdict.decision is Decision.DISTINGUISHABLE


def _generic_qubits(rng, count: int) -> list[np.ndarray]:
    """Qubit kets orthogonal to none of |0>, |1>, |0>+|1>, |0>-|1> or each other."""
    theta, phi = rng.uniform(0.3, 1.2, count), rng.uniform(0.1, 1.4, count)
    return [np.array([np.cos(t), np.exp(1j * p) * np.sin(t)]) for t, p in zip(theta, phi)]


def _padded_gadget(rng, pad: int) -> list:
    """The five-state NO family after ``pad`` states with generic Alice factors, as pairs.

    Each padding state has its own Bob basis vector, so a backtracking
    search tries about ``2^pad`` assignments of the padding before each
    dead end in the gadget.
    """
    eye = np.eye(3 + pad, dtype=complex)
    gadget = [(K1, eye[1]), (K0, eye[0] + eye[1]), (K0, eye[0] - eye[1]), (K0 + K1, eye[2]), (K0 - K1, eye[2])]
    return list(zip(_generic_qubits(rng, pad), eye[3:])) + gadget


def _two_part(rng, only: int, shared: int) -> ProductStateSet:
    """A YES family of ``2*only + shared`` states.

    ``only`` states with Alice factor |0> and ``only`` with |1> each have
    orthonormal Bob factors, and the two groups overlap for Bob; ``shared``
    states have generic Alice factors and Bob factors orthogonal to all.
    """
    eye = np.eye(only + shared, dtype=complex)
    mixed = np.zeros_like(eye)
    mixed[:only, :only] = haar_unitary(only, rng)
    pairs = [(K0, eye[i]) for i in range(only)]
    pairs += zip(_generic_qubits(rng, shared), eye[only:])
    pairs += [(K1, mixed[:, i]) for i in range(only)]
    return ProductStateSet.from_pairs(pairs)


def test_padded_gadget_is_decided_without_backtracking():
    # r = 25: a search that backtracks tries about 2^20 assignments
    pairs = _padded_gadget(np.random.default_rng(3), 20)
    best = np.inf
    for _ in range(3):
        s = ProductStateSet.from_pairs(pairs)
        t0 = time.perf_counter()
        verdict = decide_qubit_sender(s)
        best = min(best, time.perf_counter() - t0)
    assert verdict.decision is Decision.INDISTINGUISHABLE
    assert best < 0.05, f"best {best * 1e3:.1f} ms"


@pytest.mark.parametrize("seed", [0, 1])
def test_two_part_family_of_78_states_is_certified(seed):
    s = _two_part(np.random.default_rng(seed), 24, 30)
    verdict = decide_qubit_sender(s)
    assert verdict.decision is Decision.DISTINGUISHABLE
    validate_qubit_certificate(s, verdict.certificate)
    protocol = extract_qubit_protocol(s, verdict.certificate)
    assert simulate_one_way_protocol(s.to_state_set(), protocol)


@pytest.mark.parametrize("seed", [0, 1])
def test_two_part_family_of_78_states_round_trips_through_the_cli(tmp_path, capsys, seed):
    # its one_way_protocol record holds about 110 Bob elements of 54 x 54;
    # writing, reading and checking it must stay within the 5 s gate
    s = _two_part(np.random.default_rng(seed), 24, 30)
    states = str(tmp_path / "states.json")
    pairs = [{"a": io.ket_json(a), "b": io.ket_json(b)} for a, b in zip(s.alice, s.bob)]
    io.write_json(states, {"kind": "product", "dA": 2, "dB": s.dB, "states": pairs})
    cert = str(tmp_path / "cert.json")
    t0 = time.perf_counter()
    assert cli.main(["decide", states, "--json"]) == 0
    out = capsys.readouterr().out
    io.write_json(cert, json.loads(out)["certificate"])
    assert cli.main(["verify", states, cert, "--json"]) == 0
    elapsed = time.perf_counter() - t0
    assert out.count("\n") == 1  # one compact line
    assert json.loads(capsys.readouterr().out)["verified"] is True
    assert elapsed < 5.0, f"{elapsed:.2f} s"


def test_decide_qubit_sender_many_states_no_instance():
    verdict = decide_qubit_sender(ProductStateSet.from_pairs(_padded_gadget(np.random.default_rng(4), 1095)))
    assert verdict.decision is Decision.INDISTINGUISHABLE


def test_decide_qubit_sender_input_checks(qutrit_sender_instance):
    with pytest.raises(BadDimension):
        decide_qubit_sender(qutrit_sender_instance[0])
    overlapping = ProductStateSet.from_pairs([(K0, K0), (K0, (K0 + K1) / 2)])
    with pytest.raises(NotOrthogonalStates):
        decide_qubit_sender(overlapping)


def test_validate_qubit_certificate_rejects_tampering(four_product_states):
    cert = decide_qubit_sender(four_product_states).certificate

    def remake(**kw):
        from locc.graphs import QubitSenderCertificate

        fields = dict(
            v1=cert.v1,
            v2=cert.v2,
            alice_basis=cert.alice_basis,
        )
        fields.update(kw)
        return QubitSenderCertificate(**fields)

    with pytest.raises(InvalidCertificate):  # missing vertex
        validate_qubit_certificate(four_product_states, remake(v1=frozenset({0})))
    with pytest.raises(InvalidCertificate):  # vertex outside the state set
        validate_qubit_certificate(four_product_states, remake(v1=cert.v1 | {-1}))
    with pytest.raises(InvalidCertificate):  # part not independent in G_B
        validate_qubit_certificate(
            four_product_states, remake(v1=frozenset({0, 2}), v2=frozenset({1, 3}))
        )
    with pytest.raises(InvalidCertificate):  # basis not orthonormal
        validate_qubit_certificate(
            four_product_states, remake(alice_basis=(K0, K0))
        )
    with pytest.raises(InvalidCertificate):  # basis misses the outside states
        validate_qubit_certificate(
            four_product_states,
            remake(alice_basis=(cert.alice_basis[1], cert.alice_basis[0])),
        )


def test_extract_qubit_protocol_adds_inconclusive_completion():
    b0 = np.array([1, 0, 0], dtype=complex)
    b1 = np.array([0, 1, 0], dtype=complex)
    s = ProductStateSet.from_pairs([(K0, b0), (K1, b1)])
    protocol = extract_qubit_protocol(s, decide_qubit_sender(s).certificate)
    assert len(protocol.bob_povms[0]) == 3  # two states plus the completion
    assert protocol.outcome_map[(0, 2)] is None
    assert simulate_one_way_protocol(s.to_state_set(), protocol)
