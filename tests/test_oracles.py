import numpy as np
import pytest

from locc.algebra import OperatorSystem, build_operator_system, decide_by_algebra
from locc.core import DEFAULT_TOL, Decision, OneWayProtocol, StateSet
from locc.errors import BadParams, InvalidProtocol, TooLarge
from locc.graphs import Graph, ProductStateSet, complement, decide_qubit_sender, extract_qubit_protocol
from locc.oracles import (
    dense_pauli_oracle,
    haar_unitary,
    randomized_separating_oracle,
    sandwich_enumerate,
    simulate_one_way_protocol,
)
from locc.pauli import PauliOp, from_label, subgroup_span_dim


def test_haar_unitary_is_unitary_and_seeded():
    u = haar_unitary(4, np.random.default_rng(3))
    assert np.allclose(u @ u.conj().T, np.eye(4))
    again = haar_unitary(4, np.random.default_rng(3))
    assert np.allclose(u, again)


def test_sandwich_enumerate_fixed_graphs():
    c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    report = sandwich_enumerate(c4, c4)  # no optional edges, cc(C4) = 4
    assert report.verdict is False
    assert report.method == "sandwich_enumerate"

    empty = Graph.from_edges(4, [])
    k4 = complement(empty)
    assert sandwich_enumerate(empty, k4).verdict is True

    with pytest.raises(BadParams):
        sandwich_enumerate(k4, c4)  # G_A exceeds the allowed edge set
    with pytest.raises(TooLarge):
        sandwich_enumerate(empty, k4, max_missing=3)


def test_sandwich_enumerate_matches_decider(
    four_product_states, five_product_states, random_qubit_instance
):
    instances = [four_product_states, five_product_states]
    rng = np.random.default_rng(1234)
    instances += [random_qubit_instance(rng, r=4) for _ in range(10)]
    for s in instances:
        verdict = decide_qubit_sender(s)
        ga, gb = verdict.graph_alice, verdict.graph_bob
        report = sandwich_enumerate(ga, complement(gb))
        assert report.verdict == (verdict.decision is Decision.DISTINGUISHABLE)


def test_randomized_separating_oracle(random_block_algebra):
    rng = np.random.default_rng(8)
    yes = OperatorSystem.from_matrices(random_block_algebra(rng, ((2, 2),)))
    report = randomized_separating_oracle(yes, seed=5)
    assert report.verdict is True and report.trials >= 1

    no = OperatorSystem.from_matrices(random_block_algebra(rng, ((2, 1),)))
    report = randomized_separating_oracle(no, seed=5, trials=5)
    assert report.verdict is False and report.trials == 5


def test_dense_pauli_oracle_matches_symplectic_rank():
    rng = np.random.default_rng(77)
    for n in (1, 2, 3):
        for _ in range(6):
            gens = [
                PauliOp(
                    n=n,
                    x=int(rng.integers(1 << n)),
                    z=int(rng.integers(1 << n)),
                    phase=int(rng.integers(4)),
                )
                for _ in range(int(rng.integers(1, 4)))
            ]
            assert dense_pauli_oracle(gens) == subgroup_span_dim(gens)


def test_dense_pauli_oracle_guard():
    with pytest.raises(TooLarge):
        dense_pauli_oracle([from_label("I" * 6)])


def test_randomized_oracle_agrees_with_decider_on_pauli_families():
    from locc.pauli import lattice_indistinguishable_set, logical_pauli_set

    for pset in (logical_pauli_set(2, 1), lattice_indistinguishable_set(2, 2)):
        us = pset.to_dense_list()
        verdict = decide_by_algebra(us)
        report = randomized_separating_oracle(build_operator_system(us))
        assert report.verdict == (verdict.decision is Decision.DISTINGUISHABLE)


def test_simulate_one_way_protocol(bell_pair_protocol):
    states, protocol = bell_pair_protocol
    assert simulate_one_way_protocol(states, protocol) is True

    # swapping the labels misidentifies both states
    relabeled = OneWayProtocol(
        protocol.alice_povm,
        protocol.bob_povms,
        {(0, 0): 1, (0, 1): 0, (1, 0): 0, (1, 1): 1},
    )
    assert simulate_one_way_protocol(states, relabeled) is False

    with pytest.raises(InvalidProtocol):
        incomplete = OneWayProtocol(
            protocol.alice_povm, protocol.bob_povms, {(0, 0): 0}
        )
        simulate_one_way_protocol(states, incomplete)


def test_simulate_rejects_unnormalized_states(bell_pair_protocol):
    states, protocol = bell_pair_protocol
    doubled = StateSet(dA=2, dB=2, kets=tuple(2 * k for k in states.kets))
    with pytest.raises(BadParams):
        simulate_one_way_protocol(doubled, protocol)


def _kron_born_rule(s: StateSet, protocol: OneWayProtocol, tol: float = DEFAULT_TOL) -> bool:
    """The literal Born-rule check: one ``A_k (x) B_kj`` per state and outcome."""
    protocol.validate(s.dA, s.dB, max(tol, 1e-9))
    for k, bob in enumerate(protocol.bob_povms):
        for j in range(len(bob)):
            if (k, j) not in protocol.outcome_map:
                raise InvalidProtocol(f"outcome ({k},{j}) has no classification")
    slack = tol * 10
    for t, psi in enumerate(s.kets):
        if abs(np.linalg.norm(psi) - 1.0) > 1e-6:
            raise BadParams(f"state {t} is not normalized")
        correct = 0.0
        for k, a_el in enumerate(protocol.alice_povm):
            for j, b_el in enumerate(protocol.bob_povms[k]):
                prob = float(np.real(np.vdot(psi, np.kron(a_el, b_el) @ psi)))
                label = protocol.outcome_map[(k, j)]
                if label == t:
                    correct += prob
                elif label is not None and prob > slack:
                    return False
        if correct < 1.0 - max(slack, 1e-7):
            return False
    return True


def _outcome(check, s, protocol):
    try:
        return check(s, protocol)
    except (BadParams, InvalidProtocol) as exc:
        return type(exc), str(exc)


def _corruptions(rng, s: StateSet, protocol: OneWayProtocol):
    """Copies of a working (states, protocol) pair, each broken in one way."""
    omap = protocol.outcome_map
    mapped = [key for key, t in omap.items() if t is not None]
    key = mapped[rng.integers(len(mapped))]
    yield s, OneWayProtocol(protocol.alice_povm, protocol.bob_povms, {**omap, key: (omap[key] + 1) % len(s.kets)})
    yield s, OneWayProtocol(protocol.alice_povm, protocol.bob_povms, {**omap, key: -1})
    yield s, OneWayProtocol(protocol.alice_povm, protocol.bob_povms, {**omap, key: None})
    k = int(rng.integers(len(protocol.bob_povms)))
    dropped = [list(bs) for bs in protocol.bob_povms]
    dropped[k].pop(int(rng.integers(len(dropped[k]))))
    yield s, OneWayProtocol(protocol.alice_povm, dropped, omap)
    yield s, OneWayProtocol(protocol.alice_povm, protocol.bob_povms, {q: t for q, t in omap.items() if q != key})
    # Bob measures in a turned basis after Alice's first outcome: still a POVM
    turn = haar_unitary(s.dB, rng)
    turned = [[turn @ b @ turn.conj().T for b in protocol.bob_povms[0]], *protocol.bob_povms[1:]]
    yield s, OneWayProtocol(protocol.alice_povm, turned, omap)
    t = int(rng.integers(len(s.kets)))
    kets = list(s.kets)
    kets[t] = kets[t] * 1.01
    yield StateSet(dA=s.dA, dB=s.dB, kets=tuple(kets)), protocol
    # a misidentified state before a mis-normalised one: the first fault met wins
    kets = list(s.kets)
    kets[-1] = kets[-1] * 1.01
    first = next(q for q, t in omap.items() if t == 0)
    yield StateSet(dA=s.dA, dB=s.dB, kets=tuple(kets)), OneWayProtocol(
        protocol.alice_povm, protocol.bob_povms, {**omap, first: 1}
    )


def test_batched_born_rule_matches_the_kron_loop(random_qubit_instance, bell_pair_protocol):
    rng = np.random.default_rng(2024)
    cases = [bell_pair_protocol]
    while len(cases) < 25:
        s = random_qubit_instance(rng, r=int(rng.integers(2, 9)))
        # local unitaries keep both orthogonality graphs and make the factors complex
        ua, ub = haar_unitary(s.dA, rng), haar_unitary(s.dB, rng)
        s = ProductStateSet.from_pairs([(ua @ a, ub @ b) for a, b in zip(s.alice, s.bob)])
        verdict = decide_qubit_sender(s)
        if verdict.decision is Decision.DISTINGUISHABLE:
            cases.append((s.to_state_set(), extract_qubit_protocol(s, verdict.certificate)))
    # an inconclusive outcome may fire within the 1e-7 a correct answer may lose
    states, protocol = bell_pair_protocol
    (p0, p1), eps = protocol.bob_povms[0], 1e-7
    leaky = OneWayProtocol(
        protocol.alice_povm, [[(1 - eps) * p0, p1, eps * p0], protocol.bob_povms[1]], {**protocol.outcome_map, (0, 2): None}
    )
    assert simulate_one_way_protocol(states, leaky) is _kron_born_rule(states, leaky) is True
    broken = 0
    for s, protocol in cases:
        assert simulate_one_way_protocol(s, protocol) is _kron_born_rule(s, protocol) is True
        for bad_s, bad_protocol in _corruptions(rng, s, protocol):
            expected = _outcome(_kron_born_rule, bad_s, bad_protocol)
            assert _outcome(simulate_one_way_protocol, bad_s, bad_protocol) == expected
            broken += expected is not True
    assert broken == 8 * len(cases)
