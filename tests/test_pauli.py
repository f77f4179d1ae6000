import numpy as np
import pytest

from locc.algebra import build_operator_system, decide_system, find_separating_vector
from locc.errors import BadLabel, BadParams, DimensionMismatch, NonUnitary, NotOrthogonalStates
from locc.pauli import (
    I,
    X,
    Y,
    Z,
    PauliOp,
    PauliOperatorSystem,
    PauliSet,
    build_pauli_system,
    commutes,
    conjugate_by,
    from_label,
    lattice_indistinguishable_set,
    logical_pauli_set,
    pauli_mul,
    subgroup_span_dim,
    to_dense,
)

LETTER_MATRICES = {"I": I, "X": X, "Y": Y, "Z": Z}


def _random_op(rng, n):
    return PauliOp(
        n=n,
        x=int(rng.integers(1 << n)),
        z=int(rng.integers(1 << n)),
        phase=int(rng.integers(4)),
    )


@pytest.mark.parametrize("letter", "IXYZ")
def test_single_letter_roundtrip(letter):
    op = from_label(letter)
    assert np.array_equal(to_dense(op), LETTER_MATRICES[letter])
    assert op.label == letter
    assert op.coeff == 1


def test_y_convention():
    op = from_label("Y")
    assert op.phase == 1  # Y = i * XZ
    assert np.array_equal(to_dense(op), np.array([[0, -1j], [1j, 0]]))


def test_from_label_rejects():
    with pytest.raises(BadLabel):
        from_label("")
    with pytest.raises(BadLabel):
        from_label("XQ")


def test_qubit_zero_is_leftmost():
    assert np.array_equal(to_dense(from_label("XI")), np.kron(X, I))
    assert np.array_equal(to_dense(from_label("IZ")), np.kron(I, Z))
    assert np.array_equal(to_dense(from_label("XYZ")), np.kron(np.kron(X, Y), Z))


def test_label_and_coeff_reconstruct_the_operator():
    rng = np.random.default_rng(3)
    for _ in range(30):
        op = _random_op(rng, int(rng.integers(1, 4)))
        rebuilt = op.coeff * to_dense(from_label(op.label))
        assert np.allclose(to_dense(op), rebuilt)


def test_mul_matches_dense_product():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3):
        for _ in range(25):
            a, b = _random_op(rng, n), _random_op(rng, n)
            assert np.array_equal(to_dense(pauli_mul(a, b)), to_dense(a) @ to_dense(b))


def test_xy_equals_iz():
    p = pauli_mul(from_label("X"), from_label("Y"))
    assert p.label == "Z"
    assert p.coeff == 1j


def test_mul_requires_same_width():
    with pytest.raises(DimensionMismatch):
        pauli_mul(from_label("X"), from_label("XX"))
    with pytest.raises(DimensionMismatch):
        commutes(from_label("X"), from_label("XX"))


def test_commutes_matches_dense():
    rng = np.random.default_rng(9)
    seen_anticommuting = False
    for _ in range(40):
        a, b = _random_op(rng, 2), _random_op(rng, 2)
        da, db = to_dense(a), to_dense(b)
        dense_commute = np.allclose(da @ db, db @ da)
        assert commutes(a, b) == dense_commute
        seen_anticommuting |= not dense_commute
    assert seen_anticommuting  # the sample hit both branches


def test_conjugate_by():
    from locc.oracles import haar_unitary

    u = haar_unitary(2, np.random.default_rng(1))
    got = conjugate_by(u, from_label("X"))
    assert np.allclose(got, u @ X @ u.conj().T)
    with pytest.raises(NonUnitary):
        conjugate_by(2 * np.eye(2), from_label("X"))
    with pytest.raises(DimensionMismatch):
        conjugate_by(np.eye(4), from_label("X"))


def test_subgroup_span_dim_small_cases():
    assert subgroup_span_dim([]) == 1
    assert subgroup_span_dim([from_label("II")]) == 1
    assert subgroup_span_dim([from_label("Z")]) == 2
    assert subgroup_span_dim([from_label("Z"), from_label("Z")]) == 2
    assert subgroup_span_dim([from_label("X"), from_label("Z")]) == 4
    assert subgroup_span_dim([from_label("XX"), from_label("ZZ")]) == 4
    assert subgroup_span_dim([from_label("XX"), from_label("ZZ"), from_label("XY")]) == 8


def test_subgroup_span_dim_rejects_mixed_widths():
    with pytest.raises(DimensionMismatch):
        subgroup_span_dim([from_label("X"), from_label("XX")])


def test_pauli_set_validation():
    with pytest.raises(BadParams):
        PauliSet([])
    with pytest.raises(BadParams):
        PauliSet([from_label("X"), from_label("X")])
    with pytest.raises(DimensionMismatch):
        PauliSet([from_label("X"), from_label("XX")])
    # same letters with a different phase is a different operator
    PauliSet([from_label("X"), from_label("X", phase=2)])


def test_logical_pauli_set_shape():
    ps = logical_pauli_set(3, 2)
    labels = ps.labels()
    assert len(labels) == 16 and len(set(labels)) == 16
    assert all(len(s) == 3 and s.endswith("I") for s in labels)
    assert labels[0] == "III" and "XYI" in labels


def test_lattice_set_small():
    assert lattice_indistinguishable_set(2, 2).labels() == [
        "II",
        "IZ",
        "ZI",
        "ZZ",
        "XX",
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_lattice_set_size_formula(n):
    for k in range(1, n + 1):
        ps = lattice_indistinguishable_set(n, k)
        assert len(ps) == 2**k + 2 ** (n - k + 1) - 1
        assert len(set(ps.labels())) == len(ps)


@pytest.mark.parametrize("bad_k", [0, 3])
def test_family_param_validation(bad_k):
    with pytest.raises(BadParams):
        logical_pauli_set(2, bad_k)
    with pytest.raises(BadParams):
        lattice_indistinguishable_set(2, bad_k)


# ---------------------------------------------------------------------------
# the GF(2) operator system against the dense one
# ---------------------------------------------------------------------------


def _criteria(system, seed):
    """What the schmidt and algebra criteria read off ``system``, in the CLI's order."""
    closure = system.closure()
    out = {
        "closed": system.closed_under_mult,
        "abelian": system.is_abelian(),
        "dim": system.system_dim,
        "blocks": closure.decompose(seed).blocks,
    }
    if out["abelian"]:
        out["outcome"] = "schmidt"
        out["schmidt_vector"] = find_separating_vector(closure, seed=seed).vector
    verdict = decide_system(system, seed=seed)
    out["verdict"] = verdict.decision
    out["blocks_of_verdict"] = verdict.decomposition.blocks
    if verdict.certificate is not None:
        out["vector"] = verdict.certificate.vector
        out["block"] = verdict.certificate.block
    out.setdefault("outcome", verdict.decision.value)
    return out


def _assert_same_criteria(ops, seed=0):
    fast = _criteria(build_pauli_system(ops), seed)
    dense = _criteria(build_operator_system([to_dense(op) for op in ops]), seed)
    assert fast.keys() == dense.keys()
    for key, value in dense.items():
        if isinstance(value, np.ndarray) or value is None:
            assert np.array_equal(fast[key], value) if value is not None else fast[key] is None, key
        else:
            assert fast[key] == value, key
    return fast["outcome"]


def _random_family(rng):
    n = int(rng.integers(1, 5))
    vecs = rng.integers(1 << (2 * n), size=int(rng.integers(2, 9)))
    if rng.random() < 0.4:  # all of a random subgroup: S0 is closed
        group = {0}
        for v in vecs[: int(rng.integers(1, 4))]:
            group |= {g ^ int(v) for g in group}
        vecs = sorted(group)
    vecs = list(dict.fromkeys(int(v) for v in vecs))
    mask = (1 << n) - 1
    return [PauliOp(n=n, x=v >> n, z=v & mask) for v in rng.permutation(vecs)]


def test_gf2_system_matches_the_dense_system_on_random_families():
    rng = np.random.default_rng(2024)
    outcomes = {}
    for seed in range(240):
        outcome = _assert_same_criteria(_random_family(rng), seed)
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
    # every route the CLI can take was exercised
    assert set(outcomes) == {"schmidt", "distinguishable", "indistinguishable", "criterion_not_applicable"}
    assert min(outcomes.values()) >= 5, outcomes


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_gf2_system_matches_the_dense_system_on_named_families(n):
    for k in range(1, n + 1):
        for family in (logical_pauli_set(n, k), lattice_indistinguishable_set(n, k)):
            _assert_same_criteria(list(family))


def test_images_are_the_dense_paulis_applied():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3):
        system = PauliOperatorSystem.of_span(n, [int(v) for v in rng.integers(1 << (2 * n), size=3)])
        psi = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        mask = (1 << n) - 1
        dense = [
            to_dense(from_label(PauliOp(n=n, x=q >> n, z=q & mask).label)) @ psi / np.sqrt(2**n)
            for q in system.elements
        ]
        assert np.allclose(system.images(psi), dense, rtol=0, atol=1e-15)


def test_duplicate_labels_name_the_pair_the_dense_check_names():
    rng = np.random.default_rng(4)
    for _ in range(30):
        labels = ["".join(rng.choice(list("IXYZ"), size=2)) for _ in range(6)]
        ops = [from_label(s) for s in labels]
        if len(set(labels)) == len(labels):
            build_pauli_system(ops)
            continue
        with pytest.raises(NotOrthogonalStates) as fast:
            build_pauli_system(ops)
        with pytest.raises(NotOrthogonalStates) as dense:
            build_operator_system([to_dense(op) for op in ops])
        assert str(fast.value) == str(dense.value)
    with pytest.raises(NotOrthogonalStates, match=r"^states 0 and 2 overlap: \|tr\(U_2\^\* U_0\)\|/d > tol$"):
        build_pauli_system([from_label(s) for s in ("X", "Z", "X", "Z")])


def test_closure_of_a_closed_system_is_the_system():
    closed = build_pauli_system([from_label(s) for s in ("II", "XI", "IX")])
    assert closed.closed_under_mult and closed.closure() is closed
    open_ = build_pauli_system([from_label(s) for s in ("II", "XI", "IX", "ZZ")])
    closure = open_.closure()
    assert not open_.closed_under_mult and closure.closed_under_mult
    assert set(open_.elements) < set(closure.elements)
