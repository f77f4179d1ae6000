"""Operator systems, *-algebra structure, and separating vectors.

For a family of unitaries ``U_1..U_r`` the distinguishability analysis runs
through the operator system

    ``S0 = span{ U_i^* U_j : i != j } + C*I``,

which is closed under adjoints by construction.  When ``S0`` is closed under
multiplication it is a finite-dimensional C*-algebra and decomposes (up to a
unitary change of basis) as a direct sum of blocks ``M_m (x) I_n``; the
maximally entangled states built from the ``U_i`` are one-way distinguishable
(Alice measuring first) iff some vector is *separating* for ``S0``, which
happens iff every block satisfies ``n >= m``.

The block data is recovered numerically: the center is the null space of a
``D x D`` commutation Gram matrix written in the algebra's own orthonormal
basis, and the spectral projections of a random Hermitian central element cut
out the minimal central projections.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_TOL, Decision, adjoint, require_unitaries
from .errors import (
    DecompositionFailed,
    DimensionMismatch,
    NotAnAlgebra,
    NotPermutation,
    SamplingFailed,
    ZeroVector,
)

#: Relative singular-value threshold for every rank / span decision.
RANK_RTOL = 1e-7

#: Eigenvalue clusters of the sampled central element are merged below this gap.
CLUSTER_GAP = 1e-6

_SAMPLE_RETRIES = 20


# ---------------------------------------------------------------------------
# span utilities
# ---------------------------------------------------------------------------
#
# Every operator system here is closed under adjoints, so it is the complex
# span of its Hermitian elements, and its basis is built Hermitian.  For
# Hermitian H and K, tr(H^* K) = tr(HK) is real, so a basis orthonormal over
# the reals is orthonormal for the trace inner product too.  The builder
# works on real rows [Re vec H, Im vec H], whose dot product is tr(HK).


def _real_rows(mats: np.ndarray) -> np.ndarray:
    flat = mats.reshape(len(mats), mats.shape[1] * mats.shape[2])
    return np.concatenate([flat.real, flat.imag], axis=1)


def _hermitian_parts(q: np.ndarray) -> np.ndarray:
    """Real rows of ``(Q + Q^*)/2`` and ``(Q - Q^*)/2i``: together they span ``Q`` and ``Q^*``."""
    adj = np.conj(q.transpose(0, 2, 1))
    return _real_rows(np.concatenate([(q + adj) / 2, (q - adj) / 2j]))


def _extend(rows: np.ndarray, cands: np.ndarray, cut: float) -> np.ndarray:
    """``rows`` followed by orthonormal rows completing the span of ``cands``.

    Block Gram-Schmidt: the residual of ``cands`` against the orthonormal
    ``rows`` is taken in two projection passes, dropping candidates whose
    residual norm is at most ``cut``; an SVD of what is left, cut at ``cut``,
    gives the new rows.
    """
    for _ in range(2):
        cands = cands - (cands @ rows.T) @ rows
        cands = cands[np.linalg.norm(cands, axis=1) > cut]
    if not cands.shape[0]:
        return rows
    _, s, vh = np.linalg.svd(cands, full_matrices=False)
    return np.concatenate([rows, vh[s > cut]])


def _complex_basis(rows: np.ndarray, d: int) -> np.ndarray:
    """The ``(D, d, d)`` Hermitian matrices of real rows."""
    return (rows[:, : d * d] + 1j * rows[:, d * d :]).reshape(-1, d, d)


def _residual_norms(rows: np.ndarray, basis_rows: np.ndarray) -> np.ndarray:
    """Norm of each row's component orthogonal to the span of basis_rows."""
    proj = (rows @ basis_rows.conj().T) @ basis_rows
    return np.linalg.norm(rows - proj, axis=1)


# ---------------------------------------------------------------------------
# operator systems
# ---------------------------------------------------------------------------


@dataclass
class OperatorSystem:
    """An adjoint-closed, unital subspace of ``M_d`` with a Hermitian orthonormal basis.

    ``basis`` has shape ``(D, d, d)``; its elements are Hermitian and
    orthonormal for the trace inner product ``<A, B> = tr(A^* B)``.
    """

    dim: int
    basis: np.ndarray
    contains_identity: bool
    closed_under_mult: bool

    @property
    def system_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def rows(self) -> np.ndarray:
        return self.basis.reshape(self.basis.shape[0], -1)

    # the interface the criteria use, shared with pauli.PauliOperatorSystem

    def closure(self) -> "OperatorSystem":
        return self if self.closed_under_mult else algebra_closure(self)

    def is_abelian(self, tol: float = DEFAULT_TOL) -> bool:
        return is_abelian(self, tol)

    def decompose(self, seed: int = 0) -> "AlgebraDecomposition":
        return decompose(self, seed)

    def images(self, psi: np.ndarray) -> np.ndarray:
        """Rows ``B_i psi`` over the orthonormal basis."""
        return self.basis @ psi

    def contains(self, m: np.ndarray) -> bool:
        """Span membership of a single matrix at the package rank threshold."""
        row = np.asarray(m, dtype=complex).reshape(1, -1)
        scale = max(1.0, float(np.linalg.norm(row)))
        return float(_residual_norms(row, self.rows)[0]) <= RANK_RTOL * scale

    @classmethod
    def from_matrices(cls, mats) -> "OperatorSystem":
        """Operator system spanned by ``mats`` (must be adjoint-closed)."""
        mats = [np.asarray(m, dtype=complex) for m in mats]
        if not mats:
            raise DimensionMismatch("need at least one matrix")
        d = mats[0].shape[0]
        if any(m.shape != (d, d) for m in mats):
            raise DimensionMismatch("matrices must share a square shape")
        stack = np.stack(mats)
        # the span is adjoint-closed iff the Hermitian parts of mats span no more than mats
        s = np.linalg.svd(stack.reshape(len(stack), -1), compute_uv=False)
        cut = float(s[0]) * RANK_RTOL
        rows = _extend(np.zeros((0, 2 * d * d)), _hermitian_parts(stack), cut)
        if rows.shape[0] > np.count_nonzero(s > cut):
            raise NotAnAlgebra("span is not closed under adjoints")
        basis = _complex_basis(rows, d)
        identity = np.eye(d, dtype=complex).reshape(1, -1)
        has_id = float(_residual_norms(identity, basis.reshape(-1, d * d))[0]) <= RANK_RTOL * np.sqrt(d)
        return cls(dim=d, basis=basis, contains_identity=has_id, closed_under_mult=_closed_under_mult(basis))


def _closed_under_mult(basis: np.ndarray) -> bool:
    """Whether the span of a Hermitian orthonormal basis is closed under products.

    ``(H_a H_b)^* = H_b H_a``, and the residual against an adjoint-closed span
    commutes with the adjoint, so the products with ``a <= b`` decide it: one
    batched product per ``a``.  Each product has norm at most 1, so the
    residual test is absolute.
    """
    d = basis.shape[1]
    if basis.shape[0] == d * d:  # the span is all of M_d
        return True
    rows = basis.reshape(basis.shape[0], -1)
    rows_h = rows.conj().T
    for a in range(basis.shape[0]):
        prods = (basis[a] @ basis[a:]).reshape(-1, d * d)
        if (np.linalg.norm(prods - (prods @ rows_h) @ rows, axis=1) > RANK_RTOL).any():
            return False
    return True


def build_operator_system(unitaries, tol: float = DEFAULT_TOL) -> OperatorSystem:
    """The operator system ``span{U_i^* U_j : i != j} + C*I``.

    Every criterion on unitaries runs on this system, so this is where a
    family is validated: its members must be unitary and its states mutually
    orthogonal (``NotOrthogonalStates`` otherwise).
    """
    return _quotient_system(require_unitaries(unitaries, tol))


def _quotient_system(us: np.ndarray) -> OperatorSystem:
    """Span of the quotients of a validated, mutually orthogonal stack.

    Per anchor ``a``, one batched product ``U_a^* U_b`` (``b > a``) adds the
    Hermitian parts of the quotients that grow the span; each quotient is
    unitary, so its norm (the residual scale) is ``sqrt(d)``.  With
    ``V_a = U_0^* U_a`` every quotient is ``U_a^* U_b = V_a^* V_b``, so when
    the span of anchor 0 is closed under products it is all of ``S0``, and
    its closure test is the final one.
    """
    d = us.shape[1]
    cut = RANK_RTOL * np.sqrt(d)
    identity = _real_rows(np.eye(d)[None] / np.sqrt(d))
    rows = _extend(identity, _hermitian_parts(adjoint(us[0]) @ us[1:]), cut)
    basis = _complex_basis(rows, d)
    closed = _closed_under_mult(basis)
    if not closed:
        grown = rows
        for a in range(1, len(us) - 1):
            if grown.shape[0] == d * d:
                break
            grown = _extend(grown, _hermitian_parts(adjoint(us[a]) @ us[a + 1 :]), cut)
        if grown.shape[0] > rows.shape[0]:
            basis = _complex_basis(grown, d)
            closed = _closed_under_mult(basis)
    return OperatorSystem(dim=d, basis=basis, contains_identity=True, closed_under_mult=closed)


def algebra_closure(system: OperatorSystem) -> OperatorSystem:
    """Smallest multiplicatively closed operator system containing ``system``.

    Adjoins the Hermitian parts of the products ``H_a H_b`` (``a <= b``, which
    also cover ``H_b H_a``) until the dimension stops growing; it is bounded
    by ``d**2``, so the loop ends.  Products of orthonormal elements have
    norm at most 1, so the cut is absolute.
    """
    d, basis = system.dim, system.basis
    rows = _real_rows(basis)
    while rows.shape[0] < d * d:
        grown = rows
        for a in range(len(basis)):
            if grown.shape[0] == d * d:
                break
            grown = _extend(grown, _hermitian_parts(basis[a] @ basis[a:]), RANK_RTOL)
        if grown.shape[0] == rows.shape[0]:
            break
        rows, basis = grown, _complex_basis(grown, d)
    return OperatorSystem(
        dim=d,
        basis=basis,
        contains_identity=system.contains_identity,
        closed_under_mult=True,
    )


# ---------------------------------------------------------------------------
# block decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlgebraDecomposition:
    """Block structure of a C*-algebra: unitarily ``(+)_k M_m_k (x) I_n_k``.

    ``blocks[k] = (m_k, n_k)`` and ``projections[k]`` is the minimal central
    projection of the k-th block (none are formed for a
    :class:`locc.pauli.PauliOperatorSystem`).  Invariants (asserted at construction
    time): ``sum m_k^2 == algebra_dim`` and ``sum m_k * n_k == dim``.
    """

    dim: int
    algebra_dim: int
    blocks: tuple[tuple[int, int], ...]
    projections: tuple[np.ndarray, ...]


def _center_rows(system: OperatorSystem) -> np.ndarray:
    """Orthonormal rows spanning the center of a multiplicatively closed system.

    ``X`` commutes with every basis element ``B`` iff ``vec(X)`` is
    annihilated by each ``L_B = I (x) B^T - B (x) I``, i.e. lies in the null
    space of the PSD operator ``H = sum_B L_B^* L_B``, which sums to
    ``I (x) conj(P) + Q (x) I - K - K^*`` with ``P = sum B B^*``,
    ``Q = sum B^* B`` and ``K = sum B (x) conj(B)``.  The center is the part
    of that null space inside the algebra: with ``X = sum_k c_k B_k`` it is
    the null space of the ``D x D`` matrix ``conj(R) H R^T``, ``R`` the
    basis rows.  Only ``K`` (``d^2 x d^2``) is formed; the first two terms
    of ``H`` act as ``B -> B P + Q B``.
    """
    basis, rows, d = system.basis, system.rows, system.dim
    rows_c, stacked = rows.conj(), basis.reshape(-1, d)  # [B_1; ...; B_D]
    side = basis.transpose(1, 0, 2).reshape(d, -1)  # [B_1 ... B_D]
    p, q = side @ side.conj().T, stacked.conj().T @ stacked
    k = (rows.T @ rows_c).reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, -1)
    cross = rows_c @ k @ rows.T
    gram = rows_c @ (basis @ p + q @ basis).reshape(len(basis), -1).T - cross
    evals, evecs = np.linalg.eigh(gram - cross.conj().T)
    null = evecs[:, evals <= max(float(evals[-1]), 1.0) * RANK_RTOL**2]
    return null.T @ rows


def decompose(system: OperatorSystem, seed: int = 0) -> AlgebraDecomposition:
    """Numerical block decomposition of a multiplicatively closed system.

    Strategy: compute the center ``Z`` as the elements of ``A`` that commute
    with its basis (the null space of one ``D x D`` Gram matrix in ``A``'s own
    coordinates, see :func:`_center_rows`), draw one random Hermitian element
    of ``Z`` and cluster its eigenvalues; generically the spectral
    projections are exactly the minimal central projections.  Each central
    projection ``p`` then gives ``m = sqrt(dim pAp)`` and ``n = tr(p)/m``;
    when ``dim Z == dim A`` the algebra is abelian and every ``m`` is 1.
    The dimension accounting ``sum m^2 == dim A`` and ``sum m*n == d`` is a
    hard consistency check; failures trigger a resample and finally
    ``DecompositionFailed``.
    """
    if not system.closed_under_mult:
        raise NotAnAlgebra("decompose requires a multiplicatively closed system")
    if not system.contains_identity:
        raise NotAnAlgebra("decompose requires a unital system")
    d = system.dim
    algebra_dim = system.system_dim

    if algebra_dim == d * d:  # the full matrix algebra: one block, no sampling
        return AlgebraDecomposition(
            dim=d,
            algebra_dim=algebra_dim,
            blocks=((d, 1),),
            projections=(np.eye(d, dtype=complex),),
        )

    center = _center_rows(system)
    if center.shape[0] == 0:
        raise DecompositionFailed("unital algebra with an empty center")
    abelian = center.shape[0] == algebra_dim

    last_error = "no attempt made"
    for attempt in range(5):
        rng = np.random.default_rng(np.random.SeedSequence([seed, attempt, 0xA15EB]))
        coeffs = rng.standard_normal(len(center)) + 1j * rng.standard_normal(len(center))
        g = (coeffs @ center).reshape(d, d)
        evals, evecs = np.linalg.eigh((g + adjoint(g)) / 2)
        scale = max(-float(evals[0]), float(evals[-1]))
        if scale < 1e-12:
            last_error = "sampled central element is numerically zero"
            continue
        evals = evals / scale

        # split the sorted spectrum at gaps larger than CLUSTER_GAP
        splits = [0] + [i for i in range(1, d) if evals[i] - evals[i - 1] > CLUSTER_GAP] + [d]

        blocks: list[tuple[int, int]] = []
        projections: list[np.ndarray] = []
        ok = True
        for lo, hi in zip(splits[:-1], splits[1:]):
            vecs = evecs[:, lo:hi]
            proj = vecs @ adjoint(vecs)
            if abelian:
                rank = 1
            else:  # dim pAp from V^* B V: p = V V^*, so the singular values agree
                compressed = (adjoint(vecs) @ system.basis @ vecs).reshape(algebra_dim, -1)
                s = np.linalg.svd(compressed, compute_uv=False)
                rank = int(np.count_nonzero(s > s[0] * RANK_RTOL))
            m = round(rank**0.5)
            tr = float(hi - lo)  # tr(p) for p = V V^* with orthonormal columns V
            n = int(round(tr / m)) if m else 0
            if m < 1 or n < 1 or m * m != rank or abs(m * n - tr) > 1e-6 * max(1, d):
                ok = False
                last_error = f"inconsistent block (rank={rank}, trace={tr:.6f})"
                break
            blocks.append((m, n))
            projections.append(proj)
        if not ok:
            continue
        if sum(m * m for m, _ in blocks) != algebra_dim or sum(m * n for m, n in blocks) != d:
            last_error = f"accounting failed for blocks {blocks}"
            continue
        order = sorted(range(len(blocks)), key=lambda i: blocks[i], reverse=True)
        return AlgebraDecomposition(
            dim=d,
            algebra_dim=algebra_dim,
            blocks=tuple(blocks[i] for i in order),
            projections=tuple(projections[i] for i in order),
        )
    raise DecompositionFailed(f"block decomposition failed after 5 samples: {last_error}")


def has_separating_vector(dec: AlgebraDecomposition) -> bool:
    """A block algebra admits a separating vector iff every ``n_k >= m_k``."""
    return all(n >= m for m, n in dec.blocks)


def is_separating(system: OperatorSystem, psi: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True iff ``B |psi> = 0`` forces ``B = 0`` on the span.

    Equivalently the map ``B -> B|psi>`` restricted to the span is injective,
    i.e. the vectors ``B_i |psi>`` over a basis are linearly independent.
    """
    psi = np.asarray(psi, dtype=complex).ravel()
    if psi.size != system.dim:
        raise DimensionMismatch("vector dimension does not match the system")
    if np.linalg.norm(psi) <= tol:
        raise ZeroVector("candidate separating vector is ~0")
    if system.system_dim > system.dim:
        return False  # D vectors in C^d cannot be independent when D > d
    s = np.linalg.svd(system.images(psi), compute_uv=False)
    return bool(s[-1] > s[0] * RANK_RTOL)


@dataclass(frozen=True)
class SeparatingCertificate:
    """Either a separating vector or the block refuting its existence."""

    kind: str  # "vector" | "refuting_block"
    vector: np.ndarray | None
    block: tuple[int, int] | None
    decomposition: AlgebraDecomposition

    def __post_init__(self):
        if self.kind not in ("vector", "refuting_block"):
            raise ValueError(f"unknown certificate kind {self.kind!r}")


def find_separating_vector(
    system: OperatorSystem, seed: int = 0, tol: float = DEFAULT_TOL
) -> SeparatingCertificate:
    """Produce a separating vector, or the block that rules one out.

    Existence is decided through :func:`decompose`; a witness is then drawn
    from the normalized complex Gaussian ensemble (a full-measure set of
    vectors is separating whenever any vector is).  Raises
    ``SamplingFailed`` if no sample passes within the retry budget, which
    indicates conditioning trouble rather than non-existence.
    """
    dec = system.decompose(seed)
    if not has_separating_vector(dec):
        worst = max(dec.blocks, key=lambda mn: mn[0] - mn[1])
        return SeparatingCertificate(
            kind="refuting_block", vector=None, block=worst, decomposition=dec
        )
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5EED]))
    d = system.dim
    for _ in range(_SAMPLE_RETRIES):
        psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        psi /= np.linalg.norm(psi)
        if is_separating(system, psi, tol):
            return SeparatingCertificate(
                kind="vector", vector=psi, block=None, decomposition=dec
            )
    raise SamplingFailed(
        f"no separating vector found in {_SAMPLE_RETRIES} samples despite {dec.blocks}"
    )


# ---------------------------------------------------------------------------
# deciders on families of unitaries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlgebraVerdict:
    """Outcome of the algebra criterion on a family of unitaries."""

    decision: Decision
    certificate: SeparatingCertificate | None
    system: OperatorSystem
    decomposition: AlgebraDecomposition
    closed: bool


def decide_by_algebra(unitaries, tol: float = DEFAULT_TOL, seed: int = 0) -> AlgebraVerdict:
    """Decide one-way distinguishability of ``(I (x) U_i)|Phi>`` states."""
    return decide_system(build_operator_system(unitaries, tol), tol, seed)


def decide_system(
    system: OperatorSystem, tol: float = DEFAULT_TOL, seed: int = 0
) -> AlgebraVerdict:
    """The algebra criterion on the operator system ``S0`` of a family.

    When ``S0`` is multiplicatively closed the answer is exact: the states
    are distinguishable iff ``S0`` admits a separating vector, and the
    verdict carries the corresponding certificate.  When ``S0`` is not
    closed the criterion does not apply; the verdict is
    ``CRITERION_NOT_APPLICABLE`` and the decomposition of the multiplicative
    closure is attached for diagnosis.
    """
    if not system.closed_under_mult:
        return AlgebraVerdict(
            decision=Decision.CRITERION_NOT_APPLICABLE,
            certificate=None,
            system=system,
            decomposition=system.closure().decompose(seed),
            closed=False,
        )
    cert = find_separating_vector(system, seed=seed, tol=tol)
    decision = (
        Decision.DISTINGUISHABLE if cert.kind == "vector" else Decision.INDISTINGUISHABLE
    )
    return AlgebraVerdict(
        decision=decision,
        certificate=cert,
        system=system,
        decomposition=cert.decomposition,
        closed=True,
    )


def _as_permutation(p, size: int | None = None) -> np.ndarray:
    """A permutation's image list as an integer array (``image[i]`` is where ``i`` goes)."""
    image = np.asarray(p)
    if image.ndim != 1:
        raise NotPermutation("expected an image list")
    image = image.astype(int)
    if sorted(image.tolist()) != list(range(image.size)):
        raise NotPermutation(f"{image.tolist()} is not a permutation of 0..{image.size - 1}")
    if size is not None and image.size != size:
        raise DimensionMismatch("permutations must share a size")
    return image


def permutation_overlaps(perms) -> np.ndarray:
    """``|tr(P_b^* P_a)|/d`` for every pair: the share of points where two permutations agree.

    This is the overlap of their maximally entangled states, found from the
    image lists alone.  Agreements are counted one point at a time, so the
    memory is ``O(r^2)`` rather than ``O(r^2 d)``.
    """
    images = []
    for p in perms:
        images.append(_as_permutation(p, images[0].size if images else None))
    if not images:
        raise DimensionMismatch("need at least one permutation")
    images = np.array(images)
    agree = np.zeros((len(images), len(images)), dtype=np.int64)
    for point in images.T:
        agree += point[:, None] == point[None]
    return agree / images.shape[1]


def check_permutation_states(perms) -> bool:
    """Fast distinguishability test for permutation unitaries, given as image lists.

    The maximally entangled states built from permutation matrices are
    one-way distinguishable iff ``sigma_j^{-1} sigma_i`` is a derangement
    for every pair ``i != j`` -- equivalently, no two permutations agree at
    any point.
    """
    return not np.triu(permutation_overlaps(perms), 1).any()


def permutation_matrix(image) -> np.ndarray:
    """Matrix ``P`` with ``P|i> = |image[i]>``."""
    image = _as_permutation(image)
    m = np.zeros((image.size, image.size), dtype=complex)
    m[image, np.arange(image.size)] = 1.0
    return m


def check_simultaneous_schmidt(unitaries, tol: float = DEFAULT_TOL) -> bool:
    """True iff the family has a simultaneous Schmidt decomposition.

    Overlapping states raise ``NotOrthogonalStates`` rather than being
    misreported as distinguishable.
    """
    return is_abelian(build_operator_system(unitaries, tol), tol)


def is_abelian(system: OperatorSystem, tol: float = DEFAULT_TOL) -> bool:
    """True iff the elements of ``system`` pairwise commute.

    For the ``S0`` of unitaries this happens exactly when all quotients
    ``U_i^* U_j`` commute -- i.e. the multiplicative closure of ``S0`` is
    abelian -- in which case the family has a simultaneous Schmidt
    decomposition and its states are one-way distinguishable.  Tested as
    vanishing pairwise commutators of the orthonormal basis.
    """
    basis = system.basis
    for a in range(basis.shape[0] - 1):
        comm = basis[a] @ basis[a + 1 :] - basis[a + 1 :] @ basis[a]
        if np.abs(comm).max() > tol:
            return False
    return True
