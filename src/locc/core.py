"""Dense linear algebra for bipartite state discrimination.

Conventions used throughout the package:

* kets are 1-D complex ``numpy`` arrays; a bipartite ket on ``C^dA (x) C^dB``
  is indexed row-major, i.e. component ``i*dB + j`` multiplies ``|i>|j>``;
* operators are 2-D complex arrays acting on column vectors;
* all comparisons against zero use an absolute tolerance (default ``1e-9``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidPovm,
    InvalidProtocol,
    NonSquare,
    NonUnitary,
    NotCoisometry,
    ZeroVector,
)

#: Absolute tolerance used by every zero test unless the caller overrides it.
DEFAULT_TOL = 1e-9


class Decision(enum.Enum):
    """Outcome of a distinguishability decision procedure."""

    DISTINGUISHABLE = "distinguishable"
    INDISTINGUISHABLE = "indistinguishable"
    CRITERION_NOT_APPLICABLE = "criterion_not_applicable"


# ---------------------------------------------------------------------------
# small helpers
# ---------------------------------------------------------------------------


def adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(m).conj().T


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two operators."""
    return np.kron(np.asarray(a), np.asarray(b))


def kron_ket(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Product ket ``|u>|v>`` in the row-major composite indexing."""
    return np.kron(np.asarray(u).ravel(), np.asarray(v).ravel())


def normalized(v: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Return ``v`` scaled to unit norm; raise ``ZeroVector`` if it is ~0."""
    v = np.asarray(v, dtype=complex).ravel()
    n = np.linalg.norm(v)
    if n <= tol:
        raise ZeroVector("cannot normalize a (numerically) zero vector")
    return v / n


def require_square(m: np.ndarray, what: str = "matrix") -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NonSquare(f"{what} must be square, got shape {m.shape}")
    return m


def is_unitary(m: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True if ``m.conj().T @ m`` is the identity within ``tol`` (max entry)."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    return bool(_unitarity_defects(m) <= tol * max(1.0, m.shape[0]))


def _unitarity_defects(m: np.ndarray) -> np.ndarray:
    """Max-entry distance of ``U^* U`` from the identity, over the last two axes."""
    return np.abs(m.conj().swapaxes(-1, -2) @ m - np.eye(m.shape[-1])).max(axis=(-2, -1))


def require_unitary(m: np.ndarray, tol: float = DEFAULT_TOL, what: str = "matrix") -> np.ndarray:
    m = require_square(m, what)
    if not is_unitary(m, tol):
        raise NonUnitary(f"{what} is not unitary within tol={tol}")
    return m


def require_unitaries(unitaries, tol: float = DEFAULT_TOL) -> np.ndarray:
    """A non-empty family of same-size unitaries, checked and stacked as ``(r, d, d)``.

    Each member must pass :func:`is_unitary`; the whole family is tested in
    one batched product.
    """
    us = [require_square(u, f"unitaries[{i}]") for i, u in enumerate(unitaries)]
    if not us:
        raise DimensionMismatch("need at least one unitary")
    d = us[0].shape[0]
    if any(u.shape != (d, d) for u in us):
        raise DimensionMismatch("unitaries must share a dimension")
    stack = np.array(us)
    # `<=` as in is_unitary, so that a NaN defect fails
    ok = _unitarity_defects(stack) <= tol * max(1.0, d)
    if not ok.all():
        raise NonUnitary(f"unitaries[{ok.argmin()}] is not unitary within tol={tol}")
    return stack


# ---------------------------------------------------------------------------
# maximally entangled states
# ---------------------------------------------------------------------------


def max_entangled(u: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Ket of the maximally entangled state ``(I (x) U)|Phi>``.

    ``|Phi> = d^{-1/2} * sum_i |i>|i>`` is the canonical maximally entangled
    state on ``C^d (x) C^d``.  Applying ``U`` on the second factor gives a
    state whose amplitude on ``|i>|j>`` is ``U[j, i] / sqrt(d)``.

    Parameters
    ----------
    u : (d, d) array
        Unitary applied on the second (Bob's) factor.
    tol : float
        Tolerance for the unitarity check.

    Returns
    -------
    (d*d,) complex array, unit norm.
    """
    u = require_unitary(u, tol, "state unitary")
    d = u.shape[0]
    # row-major composite index i*d + j pairs |i> with U|i> = sum_j U[j,i]|j>
    return (u.T / np.sqrt(d)).ravel()


# ---------------------------------------------------------------------------
# POVMs and one-way protocols
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Povm:
    """A finite POVM: PSD elements summing to the identity."""

    elements: tuple[np.ndarray, ...]

    def __init__(self, elements) -> None:
        object.__setattr__(
            self, "elements", tuple(np.asarray(e, dtype=complex) for e in elements)
        )

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0] if self.elements else 0

    def __len__(self) -> int:
        return len(self.elements)


def validate_povm(povm: Povm | list, tol: float = DEFAULT_TOL) -> bool:
    """Check that a family of operators forms a POVM.

    Each element must be positive semidefinite -- tested as the minimum
    eigenvalue of its Hermitian part being ``>= -tol``, which is robust to
    symmetrization noise -- and the sum must equal the identity within
    ``tol`` (entrywise).
    """
    elements = povm.elements if isinstance(povm, Povm) else [np.asarray(e, dtype=complex) for e in povm]
    if not elements:
        return False
    d = elements[0].shape[0]
    total = np.zeros((d, d), dtype=complex)
    for e in elements:
        if e.ndim != 2 or e.shape != (d, d):
            return False
        herm = (e + adjoint(e)) / 2
        if np.linalg.eigvalsh(herm)[0] < -tol:
            return False
        total += e
    return bool(np.max(np.abs(total - np.eye(d))) <= tol * max(1.0, len(elements)))


@dataclass(frozen=True)
class WeightedStates:
    """States ``phi_k`` with positive weights ``m_k``.

    The intended invariant is ``sum_k m_k |phi_k><phi_k| = I`` -- i.e. the
    rank-one operators ``m_k |phi_k><phi_k|`` form a POVM.  Use
    :func:`weighted_resolution_defect` or the verifier below to check it.
    """

    states: tuple[np.ndarray, ...]
    weights: tuple[float, ...]

    def __init__(self, states, weights) -> None:
        states = tuple(np.asarray(s, dtype=complex).ravel() for s in states)
        weights = tuple(float(w) for w in weights)
        if len(states) != len(weights):
            raise DimensionMismatch("states and weights must have equal length")
        if any(s.size != states[0].size for s in states):
            raise DimensionMismatch("states must share one dimension")
        if any(w <= 0 for w in weights):
            raise InvalidPovm("weights must be positive")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "weights", weights)

    @property
    def dim(self) -> int:
        return self.states[0].size if self.states else 0


def weighted_resolution_defect(ws: WeightedStates) -> float:
    """Max-entry distance of ``sum_k m_k |phi_k><phi_k|`` from the identity."""
    d = ws.dim
    acc = np.zeros((d, d), dtype=complex)
    for s, w in zip(ws.states, ws.weights):
        acc += w * np.outer(s, s.conj())
    return float(np.max(np.abs(acc - np.eye(d))))


def verify_witness_states(
    ws: WeightedStates, unitaries: list, tol: float = DEFAULT_TOL
) -> bool:
    """Verify a state/weight certificate for one-way distinguishability.

    The maximally entangled states ``(I (x) U_i)|Phi>`` are one-way
    distinguishable (Alice first) iff there are states ``phi_k`` and weights
    ``m_k`` with ``sum_k m_k |phi_k><phi_k| = I`` such that

        ``<phi_k| U_j^* U_i |phi_k> = 0``   for all ``k`` and all ``i != j``.

    This function checks the displayed condition for a *given* certificate.

    Raises
    ------
    InvalidPovm
        If ``ws`` does not resolve the identity within ``tol``.
    NonUnitary, DimensionMismatch
        On malformed ``unitaries``.
    """
    us = require_unitaries(unitaries, tol)
    d = ws.dim
    if us.shape[1] != d:
        raise DimensionMismatch(
            f"unitary of dimension {us.shape[1]} against states of dimension {d}"
        )
    if not weighted_resolution_defect(ws) <= tol * max(1.0, len(ws.states)):  # NaN fails
        raise InvalidPovm("weighted states do not resolve the identity")
    return _quotient_diagonals_vanish(np.stack(ws.states, axis=1), us, tol)


def verify_witness_isometry(w: np.ndarray, unitaries: list, tol: float = DEFAULT_TOL) -> bool:
    """Verify a partial-isometry certificate for one-way distinguishability.

    ``w`` must be a ``d x r`` matrix with ``w @ w^* = I_d`` (a coisometry).
    The certificate is accepted iff every diagonal entry of
    ``w^* U_j^* U_i w`` vanishes for all ``i != j``.  Columns of ``w``
    encode Alice's measurement directions: normalized columns are the states
    and squared column norms the weights of the equivalent
    :class:`WeightedStates` certificate.

    Raises ``NotCoisometry`` if ``w @ w^*`` is not the identity.
    """
    w = np.asarray(w, dtype=complex)
    if w.ndim != 2:
        raise DimensionMismatch("certificate must be a matrix")
    d = w.shape[0]
    if not np.abs(w @ adjoint(w) - np.eye(d)).max() <= tol * max(1.0, d):  # NaN fails
        raise NotCoisometry("w @ w^* != I within tol")
    us = require_unitaries(unitaries, tol)
    if us.shape[1] != d:
        raise DimensionMismatch("unitary dimension does not match certificate")
    return _quotient_diagonals_vanish(w, us, tol)


def _quotient_diagonals_vanish(cols: np.ndarray, us: np.ndarray, tol: float) -> bool:
    """True iff ``|<c, U_b^* U_a c>| <= tol`` for every column ``c`` and all ``a != b``.

    ``<c, U_b^* U_a c> = <U_b c, U_a c>`` and the ``(b, a)`` value is the
    conjugate of the ``(a, b)`` one, so the pairs ``b > a`` cover every case.
    """
    v = us @ cols
    for a in range(len(us) - 1):
        if np.abs(np.einsum("bik,ik->bk", v[a + 1 :].conj(), v[a])).max() > tol:
            return False
    return True


def isometry_to_weighted_states(w: np.ndarray, tol: float = DEFAULT_TOL) -> WeightedStates:
    """Convert a coisometry certificate to its state/weight form."""
    w = np.asarray(w, dtype=complex)
    states, weights = [], []
    for k in range(w.shape[1]):
        col = w[:, k]
        n2 = float(np.linalg.norm(col) ** 2)
        if n2 <= tol:
            continue  # a zero column contributes nothing to the resolution
        states.append(col / np.sqrt(n2))
        weights.append(n2)
    return WeightedStates(states, weights)


# ---------------------------------------------------------------------------
# state sets and protocols
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StateSet:
    """A finite family of bipartite pure states to be told apart.

    ``kets[s]`` is the full state vector of the ``s``-th hypothesis on
    ``C^dA (x) C^dB`` (row-major composite index).
    """

    dA: int
    dB: int
    kets: tuple[np.ndarray, ...]
    kind: str = "generic"

    @classmethod
    def from_unitaries(cls, unitaries, tol: float = DEFAULT_TOL) -> "StateSet":
        """States ``(I (x) U_i)|Phi>`` on ``C^d (x) C^d``."""
        kets = tuple(max_entangled(u, tol) for u in unitaries)
        if not kets:
            raise DimensionMismatch("need at least one unitary")
        d = int(round(np.sqrt(kets[0].size)))
        return cls(dA=d, dB=d, kets=kets, kind="max_entangled")

    def __len__(self) -> int:
        return len(self.kets)

    def orthogonality_defect(self) -> float:
        """Largest ``|<psi_a|psi_b>|`` over distinct pairs (0 for a single state)."""
        worst = 0.0
        for a in range(len(self.kets)):
            for b in range(a + 1, len(self.kets)):
                worst = max(worst, abs(np.vdot(self.kets[a], self.kets[b])))
        return worst


@dataclass(frozen=True)
class OneWayProtocol:
    """A one-way LOCC measurement protocol, Alice measuring first.

    Alice applies the POVM ``alice_povm``; on outcome ``k`` Bob applies
    ``bob_povms[k]``; the pair of outcomes ``(k, j)`` is mapped to a state
    index by ``outcome_map`` (``None`` marks an inconclusive branch).
    """

    alice_povm: tuple[np.ndarray, ...]
    bob_povms: tuple[tuple[np.ndarray, ...], ...]
    outcome_map: dict = field(default_factory=dict)

    def __init__(self, alice_povm, bob_povms, outcome_map) -> None:
        object.__setattr__(
            self, "alice_povm", tuple(np.asarray(a, dtype=complex) for a in alice_povm)
        )
        object.__setattr__(
            self,
            "bob_povms",
            tuple(tuple(np.asarray(b, dtype=complex) for b in bs) for bs in bob_povms),
        )
        object.__setattr__(self, "outcome_map", dict(outcome_map))

    def validate(self, dA: int, dB: int, tol: float = DEFAULT_TOL) -> None:
        """Raise ``InvalidProtocol`` unless the POVM normalizations hold."""
        if len(self.alice_povm) != len(self.bob_povms):
            raise InvalidProtocol("need one Bob POVM per Alice outcome")
        if any(a.shape != (dA, dA) for a in self.alice_povm):
            raise InvalidProtocol(f"Alice's elements must be {dA}x{dA}")
        if not validate_povm(list(self.alice_povm), tol):
            raise InvalidProtocol("Alice's measurement is not a POVM")
        for k, bs in enumerate(self.bob_povms):
            if any(b.shape != (dB, dB) for b in bs):
                raise InvalidProtocol(f"Bob's elements for outcome {k} must be {dB}x{dB}")
            if not validate_povm(list(bs), tol):
                raise InvalidProtocol(f"Bob's measurement for Alice outcome {k} is not a POVM")
