import numpy as np
import pytest

from locc import algebra
from locc.algebra import (
    RANK_RTOL,
    OperatorSystem,
    algebra_closure,
    build_operator_system,
    check_permutation_states,
    check_simultaneous_schmidt,
    decide_by_algebra,
    decompose,
    find_separating_vector,
    has_separating_vector,
    is_abelian,
    is_separating,
    permutation_matrix,
)
from locc.algebra import _center_rows
from locc.core import Decision
from locc.errors import (
    NonUnitary,
    NotAnAlgebra,
    NotOrthogonalStates,
    NotPermutation,
    ZeroVector,
)
from locc.oracles import haar_unitary
from locc.pauli import (
    I,
    X,
    Y,
    Z,
    build_pauli_system,
    lattice_indistinguishable_set,
    logical_pauli_set,
    to_dense,
)

W = np.exp(2j * np.pi / 3)
SHIFT3 = permutation_matrix([1, 2, 0])
CLOCK3 = np.diag([1, W, W**2])


def _unit(d, a, b):
    e = np.zeros((d, d), dtype=complex)
    e[a, b] = 1
    return e


def test_build_operator_system_from_paulis():
    system = build_operator_system([I, X, Y, Z])
    assert system.dim == 2
    assert system.system_dim == 4  # quotients of Paulis span all of M_2
    assert system.contains_identity and system.closed_under_mult
    assert system.contains(Y) and system.contains(np.outer([1, 0], [0, 1]))


def test_operator_system_requires_adjoint_closure():
    with pytest.raises(NotAnAlgebra, match="span is not closed under adjoints"):
        OperatorSystem.from_matrices([np.eye(2), _unit(2, 0, 1)])


def test_closure_adjoins_products():
    hop = _unit(3, 0, 1) + _unit(3, 1, 0)
    system = OperatorSystem.from_matrices([np.eye(3), hop])
    assert not system.closed_under_mult
    closure = algebra_closure(system)
    assert closure.closed_under_mult
    # span{I, A, A^2} with A^2 = E00 + E11: dimension three exactly
    assert closure.system_dim == 3
    assert closure.contains(_unit(3, 0, 0) + _unit(3, 1, 1))
    assert not closure.contains(_unit(3, 0, 0))
    # closing a closed system is a no-op
    assert algebra_closure(closure).system_dim == 3


def test_decompose_full_matrix_algebra():
    dec = decompose(build_operator_system([I, X, Y, Z]))
    assert dec.blocks == ((2, 1),)
    assert dec.algebra_dim == 4
    assert not has_separating_vector(dec)


def test_decompose_diagonal_algebra():
    system = OperatorSystem.from_matrices([_unit(3, k, k) for k in range(3)])
    dec = decompose(system)
    assert dec.blocks == ((1, 1),) * 3
    assert has_separating_vector(dec)
    for p in dec.projections:
        assert np.allclose(p @ p, p)
    assert np.allclose(sum(dec.projections), np.eye(3))


@pytest.mark.parametrize(
    "blocks",
    [
        ((1, 1), (2, 1)),
        ((2, 2),),
        ((2, 1), (1, 2)),
        ((3, 1), (1, 1), (1, 2)),
    ],
)
def test_decompose_recovers_planted_blocks(blocks, random_block_algebra):
    rng = np.random.default_rng(hash(blocks) % 2**32)
    mats = random_block_algebra(rng, blocks)
    system = OperatorSystem.from_matrices(mats)
    assert system.closed_under_mult
    dec = decompose(system)
    assert dec.blocks == tuple(sorted(blocks, reverse=True))
    assert dec.algebra_dim == sum(m * m for m, _ in blocks)
    assert sum(m * n for m, n in dec.blocks) == system.dim
    assert has_separating_vector(dec) == all(n >= m for m, n in blocks)
    center = _center_rows(system)  # one minimal central projection per block
    assert center.shape[0] == len(blocks)
    for z in center.reshape(-1, system.dim, system.dim):
        assert system.contains(z)
        assert all(np.allclose(z @ b, b @ z, atol=1e-10) for b in system.basis)


def test_is_separating_matrix_units_case():
    # M_2 (x) I_2 inside M_4: e0 (x) e0 is killed by E01 (x) I, the
    # maximally entangled vector is killed by nothing
    basis = [np.kron(_unit(2, a, b), np.eye(2)) for a in range(2) for b in range(2)]
    system = OperatorSystem.from_matrices(basis)
    product_vec = np.zeros(4, dtype=complex)
    product_vec[0] = 1
    entangled = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    assert not is_separating(system, product_vec)
    assert is_separating(system, entangled)
    with pytest.raises(ZeroVector):
        is_separating(system, np.zeros(4))


def test_is_separating_dimension_bound():
    # more independent operators than Hilbert space dimensions: no vector
    # can be separating
    system = build_operator_system([I, X, Y, Z])
    rng = np.random.default_rng(2)
    psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    assert not is_separating(system, psi / np.linalg.norm(psi))


def test_find_separating_vector_both_kinds(random_block_algebra):
    rng = np.random.default_rng(42)
    good = OperatorSystem.from_matrices(random_block_algebra(rng, ((2, 2),)))
    cert = find_separating_vector(good, seed=1)
    assert cert.kind == "vector"
    assert is_separating(good, cert.vector)

    bad = OperatorSystem.from_matrices(random_block_algebra(rng, ((2, 1),)))
    cert = find_separating_vector(bad, seed=1)
    assert cert.kind == "refuting_block"
    assert cert.block == (2, 1)
    assert cert.vector is None


def test_decide_by_algebra_two_states():
    verdict = decide_by_algebra([I, X])
    assert verdict.decision is Decision.DISTINGUISHABLE
    assert verdict.closed
    assert verdict.certificate.kind == "vector"
    assert verdict.decomposition.blocks == ((1, 1), (1, 1))


def test_decide_by_algebra_full_pauli_family():
    verdict = decide_by_algebra([I, X, Y, Z])
    assert verdict.decision is Decision.INDISTINGUISHABLE
    assert verdict.certificate.kind == "refuting_block"
    assert verdict.certificate.block == (2, 1)


def test_decide_by_algebra_rejects_nonorthogonal():
    with pytest.raises(NotOrthogonalStates):
        decide_by_algebra([np.eye(2), np.diag([1, 1j])])


def test_family_with_nan_entry_is_not_unitary():
    nan_x = np.array([[0, 1], [1, np.nan]])
    for check in (decide_by_algebra, check_simultaneous_schmidt, build_operator_system):
        with pytest.raises(NonUnitary):
            check([I, nan_x])


def test_decide_by_algebra_not_closed_is_not_applicable():
    # quotients of {I, shift, clock} miss some Weyl operators, so the
    # operator system is a proper subspace not closed under products
    verdict = decide_by_algebra([np.eye(3), SHIFT3, CLOCK3])
    assert verdict.decision is Decision.CRITERION_NOT_APPLICABLE
    assert not verdict.closed
    assert verdict.certificate is None
    assert verdict.system.system_dim == 7
    # the attached decomposition describes the closure, which is all of M_3
    assert verdict.decomposition.blocks == ((3, 1),)


def test_check_permutation_states():
    cycle = [1, 2, 0]
    assert check_permutation_states([[0, 1, 2], cycle, [2, 0, 1]]) is True
    assert check_permutation_states([[0, 1, 2], [0, 2, 1]]) is False
    # matrix inputs are accepted
    assert check_permutation_states([np.eye(3), permutation_matrix(cycle)]) is True
    with pytest.raises(NotPermutation):
        check_permutation_states([[0, 1, 1]])
    with pytest.raises(NotPermutation):
        check_permutation_states([np.eye(3) * 2])


def test_permutation_matrix_convention():
    p = permutation_matrix([1, 2, 0])
    e0 = np.zeros(3)
    e0[0] = 1
    assert np.allclose(p @ e0, [0, 1, 0])  # P|0> = |1>
    assert np.allclose(p.sum(axis=0), 1) and np.allclose(p.sum(axis=1), 1)


def test_permutation_criterion_matches_algebra_on_s3():
    from itertools import combinations, permutations

    perms = [list(p) for p in permutations(range(3))]
    for pair in combinations(perms, 2):
        family = [permutation_matrix(p) for p in pair]
        if check_permutation_states(list(pair)):
            verdict = decide_by_algebra(family)
            assert verdict.decision is Decision.DISTINGUISHABLE
        else:
            # a common fixed point of the quotient is exactly a
            # nonorthogonal pair of maximally entangled states
            with pytest.raises(NotOrthogonalStates):
                decide_by_algebra(family)


def test_check_simultaneous_schmidt():
    assert check_simultaneous_schmidt([np.eye(3), CLOCK3, CLOCK3 @ CLOCK3]) is True
    assert check_simultaneous_schmidt([I, X]) is True
    assert check_simultaneous_schmidt([I, X, Z]) is False
    assert check_simultaneous_schmidt([np.eye(3), SHIFT3, CLOCK3]) is False
    # the batched commutator test against the loop over basis pairs
    zz = [np.kron(a, b) for a in (I, Z) for b in (I, Z)]
    for family in ([I, X], [I, X, Z], [np.eye(3), SHIFT3, CLOCK3], zz, [np.kron(I, X), *zz[1:]]):
        system = build_operator_system(family)
        basis = system.basis
        loop = all(
            np.abs(a @ b - b @ a).max() <= 1e-9 for i, a in enumerate(basis) for b in basis[i + 1 :]
        )
        assert is_abelian(system) is loop
    # commuting but overlapping states must be rejected, not called
    # distinguishable
    with pytest.raises(NotOrthogonalStates):
        check_simultaneous_schmidt([I, np.diag([1.0, 1.0j])])


def _counted(monkeypatch, name):
    """Calls of ``algebra.<name>``, one entry (the first argument) per call."""
    calls, fn = [], getattr(algebra, name)

    def counted(*args):
        calls.append(args[0])
        return fn(*args)

    monkeypatch.setattr(algebra, name, counted)
    return calls


def _z4z8_translations(rng, count):
    """``count`` distinct translations of Z4 x Z8 as permutation matrices of C^32."""
    points = [(x, y) for x in range(4) for y in range(8)]
    chosen = rng.choice(len(points), size=count, replace=False)
    mats = []
    for i, j in (points[c] for c in chosen):
        mats.append(permutation_matrix([((x + i) % 4) * 8 + (y + j) % 8 for x, y in points]))
    return mats, [points[c] for c in chosen]


def test_closed_anchor_zero_span_is_all_of_s0(monkeypatch):
    # With V_a = U_0^* U_a every quotient is V_a^* V_b, so a closed span of
    # anchor 0's quotients is S0: one batch of quotients, one closure test.
    family = logical_pauli_set(5, 4)
    batches = _counted(monkeypatch, "_hermitian_parts")
    tests = _counted(monkeypatch, "_closed_under_mult")
    system = build_operator_system([to_dense(op) for op in family])
    assert [len(q) for q in batches] == [255]
    assert len(tests) == 1
    reference = build_pauli_system(list(family))
    assert (system.system_dim, system.closed_under_mult) == (256, True)
    assert (reference.system_dim, reference.closed_under_mult) == (256, True)


def test_open_anchor_zero_span_still_reaches_s0(monkeypatch):
    rng = np.random.default_rng(5)
    lattice = lattice_indistinguishable_set(5, 3)
    perms, points = _z4z8_translations(rng, 16)
    # S0 of translations is spanned by the translations by the differences,
    # and it is closed iff those differences form a subgroup
    diffs = {((a[0] - b[0]) % 4, (a[1] - b[1]) % 8) for a in points for b in points}
    closed = all(((p[0] + q[0]) % 4, (p[1] + q[1]) % 8) in diffs for p in diffs for q in diffs)
    pauli = build_pauli_system(list(lattice))
    for family, expected in (
        ([to_dense(op) for op in lattice], (pauli.system_dim, pauli.closed_under_mult)),
        (perms, (len(diffs), closed)),
    ):
        batches = _counted(monkeypatch, "_hermitian_parts")
        system = build_operator_system(family)
        assert len(batches) > 1  # the span of anchor 0 alone was not closed
        assert (system.system_dim, system.closed_under_mult) == expected
        monkeypatch.undo()


def test_two_state_family_tests_closure_once(monkeypatch):
    tests = _counted(monkeypatch, "_closed_under_mult")
    svds = []
    svd = np.linalg.svd

    def counted_svd(*args, **kwargs):
        svds.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    assert decide_by_algebra([I, X]).decision is Decision.DISTINGUISHABLE
    assert len(tests) == 1
    # one orthonormalizes the quotients, one tests the sampled vector
    assert len(svds) == 2


def _brute_force_closed(system) -> bool:
    """Every ordered product of basis elements lies in the span."""
    basis, rows = system.basis, system.rows
    prods = np.einsum("aij,bjk->abik", basis, basis).reshape(-1, rows.shape[1])
    residual = prods - (prods @ rows.conj().T) @ rows
    return bool(np.linalg.norm(residual, axis=1).max() <= RANK_RTOL)


def _hermitian_defect(system) -> float:
    return float(np.abs(system.basis - system.basis.conj().transpose(0, 2, 1)).max())


def test_hermitian_bases_and_closure_tests_match_brute_force(random_block_algebra):
    rng = np.random.default_rng(77)
    systems = []
    for _ in range(12):
        count = int(rng.integers(1, 3))
        blocks = tuple((int(rng.integers(1, 3)), int(rng.integers(1, 3))) for _ in range(count))
        mats = random_block_algebra(rng, blocks)
        systems.append(OperatorSystem.from_matrices(mats))  # closed
        # a random subset with its adjoints and the identity: often not closed
        picks = rng.choice(len(mats), size=max(1, len(mats) // 3), replace=False)
        part = [mats[int(k)] for k in picks]
        adjoints = [m.conj().T for m in part]
        systems.append(OperatorSystem.from_matrices([np.eye(len(mats[0])), *part, *adjoints]))
    for d in (2, 3, 4):
        for r in (2, 3, 4):
            # Haar-conjugated clock-and-shift subsets: mutually orthogonal unitaries
            u = haar_unitary(d, rng)
            shift, clock = np.roll(np.eye(d), 1, axis=0), np.diag(np.exp(2j * np.pi * np.arange(d) / d))
            powers = [np.linalg.matrix_power(m, k) for m in (shift, clock) for k in range(d)]
            weyl = [a @ b for a in powers[:d] for b in powers[d:]]
            family = [u @ weyl[int(k)] @ u.conj().T for k in rng.choice(d * d, size=r, replace=False)]
            systems.append(build_operator_system(family))
    # both outcomes from both constructors
    assert {s.closed_under_mult for s in systems[:24]} == {True, False}
    assert {s.closed_under_mult for s in systems[24:]} == {True, False}
    for system in systems:
        assert _hermitian_defect(system) <= 1e-12
        assert np.allclose(system.rows @ system.rows.conj().T, np.eye(system.system_dim), atol=1e-12)
        assert system.closed_under_mult == _brute_force_closed(system)
        if not system.closed_under_mult:
            closure = algebra_closure(system)
            assert _hermitian_defect(closure) <= 1e-12
            assert closure.closed_under_mult and _brute_force_closed(closure)
            assert closure.system_dim > system.system_dim
