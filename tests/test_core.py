import numpy as np
import pytest

from locc.core import (
    OneWayProtocol,
    StateSet,
    WeightedStates,
    isometry_to_weighted_states,
    max_entangled,
    normalized,
    require_orthogonal,
    require_unitaries,
    validate_povm,
    verify_witness_isometry,
    verify_witness_states,
    weighted_resolution_defect,
)
from locc.errors import (
    DimensionMismatch,
    InvalidPovm,
    InvalidProtocol,
    NonSquare,
    NonUnitary,
    NotCoisometry,
    NotOrthogonalStates,
    ZeroVector,
)
from locc.oracles import haar_unitary
from locc.pauli import I, X, Y, Z

E0 = np.array([1, 0], dtype=complex)
E1 = np.array([0, 1], dtype=complex)


def test_max_entangled_identity_is_uniform_bell():
    v = max_entangled(np.eye(2))
    assert np.allclose(v, np.array([1, 0, 0, 1]) / np.sqrt(2))


def test_max_entangled_index_convention():
    # the amplitude of |i>|j> is u[j, i] / sqrt(d)
    u = haar_unitary(3, np.random.default_rng(7))
    v = max_entangled(u)
    for i in range(3):
        for j in range(3):
            assert v[3 * i + j] == pytest.approx(u[j, i] / np.sqrt(3))


def test_max_entangled_overlap_is_normalized_trace():
    rng = np.random.default_rng(11)
    for d in (2, 3, 5):
        u, w = haar_unitary(d, rng), haar_unitary(d, rng)
        got = np.vdot(max_entangled(u), max_entangled(w))
        assert got == pytest.approx(np.trace(u.conj().T @ w) / d)


def test_max_entangled_rejects_bad_input():
    with pytest.raises(NonSquare):
        max_entangled(np.ones((2, 3)))
    with pytest.raises(NonUnitary):
        max_entangled(2 * np.eye(2))


def test_pauli_state_set_is_orthonormal():
    s = StateSet.from_unitaries([I, X, Y, Z])
    assert (s.dA, s.dB, len(s)) == (2, 2, 4)
    assert s.kind == "max_entangled"
    kets = np.array(s.kets)
    assert np.abs(np.triu(kets.conj() @ kets.T, 1)).max() < 1e-12
    for k in s.kets:
        assert np.linalg.norm(k) == pytest.approx(1)


def test_require_orthogonal_names_the_first_pair_in_row_major_order():
    overlaps = np.eye(4)
    require_orthogonal(overlaps, 1e-9)  # the diagonal is not a pair
    overlaps[0, 3] = overlaps[3, 0] = 0.1
    overlaps[1, 2] = overlaps[2, 1] = 0.9
    with pytest.raises(NotOrthogonalStates, match=r"^states 0 and 3 overlap: \|tr\(U_3\^\* U_0\)\|/d > tol$"):
        require_orthogonal(overlaps, 1e-9)
    require_orthogonal(overlaps, 0.9)  # overlaps up to tol are admitted
    overlaps[0, 1] = overlaps[1, 0] = np.nan
    with pytest.raises(NotOrthogonalStates, match="^states 0 and 1 overlap"):
        require_orthogonal(overlaps, 0.9)


def test_normalized():
    assert np.linalg.norm(normalized([3, 4])) == pytest.approx(1)
    with pytest.raises(ZeroVector):
        normalized([0, 0, 0])
    with pytest.raises(ZeroVector):
        normalized([np.nan, 1])


def test_matrix_predicates():
    assert np.array_equal(require_unitaries([X]), [X])
    shear = np.array([[1, 1], [0, 1]], dtype=complex)
    with pytest.raises(NonUnitary):
        require_unitaries([shear])


def test_validate_povm():
    basis = [np.outer(E0, E0), np.outer(E1, E1)]
    assert validate_povm(basis)
    assert validate_povm([np.eye(2) / 2, np.eye(2) / 2])
    assert not validate_povm([np.eye(2), np.eye(2)])  # sums to 2I
    neg = np.diag([-0.1, 0.5])
    assert not validate_povm([neg, np.eye(2) - neg])  # negative eigenvalue


def test_weighted_states_input_checks():
    with pytest.raises(InvalidPovm):
        WeightedStates([E0], [0.0])
    with pytest.raises(DimensionMismatch):
        WeightedStates([E0, E1], [1.0])


def test_resolution_defect_for_trine():
    # three equiangular real states with weight 2/3 resolve the identity
    thetas = [0, 2 * np.pi / 3, 4 * np.pi / 3]
    states = [np.array([np.cos(t), np.sin(t)]) for t in thetas]
    ws = WeightedStates(states, [2 / 3] * 3)
    assert weighted_resolution_defect(ws) < 1e-12


def test_verify_witness_states():
    basis = WeightedStates([E0, E1], [1.0, 1.0])
    assert verify_witness_states(basis, [I, X]) is True
    assert verify_witness_states(basis, [I, Z]) is False
    with pytest.raises(InvalidPovm):
        verify_witness_states(WeightedStates([E0], [1.0]), [I, X])
    shift = np.roll(np.eye(3), 1, axis=0)
    with pytest.raises(DimensionMismatch):
        verify_witness_states(basis, [np.eye(3), shift])
    with pytest.raises(NotOrthogonalStates):
        verify_witness_states(basis, [np.eye(3), np.eye(3)])
    with pytest.raises(NonUnitary):
        verify_witness_states(basis, [I, 2 * X])
    with pytest.raises(NonUnitary):
        verify_witness_states(basis, [I, np.array([[0, 1], [1, np.nan]])])
    with pytest.raises(InvalidPovm):
        verify_witness_states(WeightedStates([E0, [0, np.nan]], [1.0, 1.0]), [I, X])
    # states of different lengths are rejected before any arithmetic
    with pytest.raises(DimensionMismatch):
        WeightedStates([E0, [0, 1, 0]], [1.0, 1.0])


def test_verify_witness_isometry():
    assert verify_witness_isometry(np.eye(2), [I, X]) is True
    assert verify_witness_isometry(np.eye(2), [I, Z]) is False
    with pytest.raises(NotCoisometry):
        verify_witness_isometry(2 * np.eye(2), [I, X])
    with pytest.raises(NonUnitary):
        verify_witness_isometry(np.eye(2), [I, np.array([[0, 1], [1, np.nan]])])
    with pytest.raises(NotCoisometry):
        verify_witness_isometry(np.diag([1, np.nan]), [I, X])
    # the pairwise check against the explicit loop over ordered pairs
    rng = np.random.default_rng(5)
    hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    for w in (np.eye(2), hadamard, haar_unitary(2, rng), haar_unitary(3, rng)[:2, :]):
        for us in ([I, X], [I, Z], [I, X, Y, Z], [X, Y, Z]):
            loop = all(
                np.max(np.abs(np.diag(w.conj().T @ b.conj().T @ a @ w))) <= 1e-9
                for i, a in enumerate(us)
                for j, b in enumerate(us)
                if i != j
            )
            assert verify_witness_isometry(w, us) is loop


def test_isometry_and_states_forms_agree():
    rng = np.random.default_rng(23)
    families = ([I, X], [I, Z], [I, X, Y, Z])
    for _ in range(10):
        w = haar_unitary(3, rng)[:2, :]  # a random 2x3 coisometry
        ws = isometry_to_weighted_states(w)
        assert weighted_resolution_defect(ws) < 1e-10
        for us in families:
            assert verify_witness_isometry(w, us) == verify_witness_states(
                ws, us, tol=1e-8
            )


def test_isometry_to_weighted_states_drops_zero_columns():
    w = np.array([[1, 0, 0], [0, 1, 0]], dtype=complex)
    ws = isometry_to_weighted_states(w)
    assert len(ws.states) == 2
    assert weighted_resolution_defect(ws) < 1e-12


def test_one_way_protocol_validate(bell_pair_protocol):
    states, protocol = bell_pair_protocol
    protocol.validate(2, 2)  # must not raise

    p0 = np.outer(E0, E0)
    with pytest.raises(InvalidProtocol):
        OneWayProtocol([p0, p0], [[np.eye(2)], [np.eye(2)]], {}).validate(2, 2)
    with pytest.raises(InvalidProtocol):
        OneWayProtocol([p0, np.eye(2) - p0], [[np.eye(2)]], {}).validate(2, 2)
    with pytest.raises(InvalidProtocol):
        OneWayProtocol(
            [p0, np.eye(2) - p0], [[np.eye(2)], [2 * np.eye(2)]], {}
        ).validate(2, 2)
