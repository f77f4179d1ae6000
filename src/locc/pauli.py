"""n-qubit Pauli operators in a symplectic (bitmask) encoding.

A Pauli operator is stored as ``i^phase * prod_q X_q^{x_q} Z_q^{z_q}`` with
``x`` and ``z`` packed into integers (bit ``q`` belongs to qubit ``q``; qubit
0 is the leftmost letter of a label and the leftmost Kronecker factor).  The
letter ``Y`` follows the convention ``Y = i * X @ Z``, so ``from_label("Y")``
has dense form ``[[0, -1j], [1j, 0]]`` exactly.

Multiplication, commutation and group-span computations happen on the bit
representation; :func:`to_dense` materializes a ``2^n x 2^n`` matrix.
:class:`PauliOperatorSystem` is the operator system ``S0`` of a label family
over GF(2): it answers every question the criteria of :mod:`locc.algebra`
ask without forming a dense matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .algebra import AlgebraDecomposition
from .core import overlap_error, require_unitaries
from .errors import BadLabel, BadParams, DimensionMismatch, NotAnAlgebra

I = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)

# X^x Z^z for (x, z) in {0,1}^2; the (1,1) entry is XZ = -iY.
_XZ_FORMS = {
    (0, 0): I,
    (1, 0): X,
    (0, 1): Z,
    (1, 1): np.array([[0, -1], [1, 0]], dtype=complex),
}

_LETTER_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_BITS_LETTER = {v: k for k, v in _LETTER_BITS.items()}

_PHASES = (1, 1j, -1, -1j)


@dataclass(frozen=True)
class PauliOp:
    """An n-qubit Pauli: ``i^phase * prod_q X_q^{x_q} Z_q^{z_q}``."""

    n: int
    x: int
    z: int
    phase: int = 0  # exponent of i, mod 4

    def __post_init__(self):
        if self.n < 1:
            raise BadParams("need at least one qubit")
        if not 0 <= self.x < (1 << self.n) or not 0 <= self.z < (1 << self.n):
            raise BadParams("bitmask out of range for qubit count")
        object.__setattr__(self, "phase", self.phase % 4)

    @property
    def label(self) -> str:
        """Letters I/X/Y/Z, qubit 0 first (coefficient not included)."""
        return "".join(
            _BITS_LETTER[((self.x >> q) & 1, (self.z >> q) & 1)] for q in range(self.n)
        )

    @property
    def coeff(self) -> complex:
        """Scalar ``c`` such that the operator equals ``c *`` (label Paulis)."""
        n_y = bin(self.x & self.z).count("1")
        return _PHASES[(self.phase - n_y) % 4]

    def key(self) -> tuple[int, int]:
        """Phase-free identity of the operator (its x/z bit pattern)."""
        return (self.x, self.z)


def from_label(label: str, phase: int = 0) -> PauliOp:
    """Build a Pauli from a letter string like ``"XIZ"``.

    The result equals ``i^phase`` times the literal tensor product of the
    named matrices, e.g. ``from_label("Y")`` is exactly ``Y``.
    """
    if not label:
        raise BadLabel("empty label")
    x = z = 0
    n_y = 0
    for q, ch in enumerate(label):
        try:
            xb, zb = _LETTER_BITS[ch]
        except KeyError:
            raise BadLabel(f"bad letter {ch!r} in label {label!r}") from None
        x |= xb << q
        z |= zb << q
        n_y += xb & zb
    return PauliOp(n=len(label), x=x, z=z, phase=(phase + n_y) % 4)


def pauli_mul(a: PauliOp, b: PauliOp) -> PauliOp:
    """Product ``a @ b`` computed on the bit representation.

    Moving ``X``s of ``b`` past ``Z``s of ``a`` costs one sign per
    coincidence, hence the ``2 * popcount(a.z & b.x)`` phase increment.
    """
    if a.n != b.n:
        raise DimensionMismatch(f"qubit counts {a.n} != {b.n}")
    phase = (a.phase + b.phase + 2 * bin(a.z & b.x).count("1")) % 4
    return PauliOp(n=a.n, x=a.x ^ b.x, z=a.z ^ b.z, phase=phase)


def commutes(a: PauliOp, b: PauliOp) -> bool:
    """True iff the two Paulis commute (symplectic form vanishes mod 2)."""
    if a.n != b.n:
        raise DimensionMismatch(f"qubit counts {a.n} != {b.n}")
    s = bin(a.x & b.z).count("1") + bin(b.x & a.z).count("1")
    return s % 2 == 0


def to_dense(op: PauliOp) -> np.ndarray:
    """Materialize the ``2^n x 2^n`` matrix of a Pauli operator."""
    m = np.array([[1.0 + 0j]])
    for q in range(op.n):
        m = np.kron(m, _XZ_FORMS[((op.x >> q) & 1, (op.z >> q) & 1)])
    return _PHASES[op.phase] * m


def conjugate_by(u: np.ndarray, op: PauliOp, tol: float = 1e-9) -> np.ndarray:
    """Dense form of ``U P U^*`` for a unitary ``U`` (not a Pauli in general)."""
    u = require_unitaries([u], tol)[0]
    dense = to_dense(op)
    if u.shape[0] != dense.shape[0]:
        raise DimensionMismatch("unitary dimension does not match 2^n")
    return u @ dense @ u.conj().T


def _pivots(vecs) -> list[int]:
    """Echelon basis of the GF(2) span of integer bit vectors.

    Each kept vector has its leading bit cleared from every later one, so
    reducing a vector by the pivots in order leaves zero iff it lies in the
    span.
    """
    pivots: list[int] = []
    for v in vecs:
        for p in pivots:
            v = min(v, v ^ p)
        if v:
            pivots.append(v)
    return pivots


def subgroup_span_dim(gens: list[PauliOp]) -> int:
    """Dimension of the span of the group generated by ``gens``.

    Distinct Paulis (mod phase) are linearly independent, so the span
    dimension equals the number of distinct phase-free labels in the
    generated group, which is ``2^rank`` of the generators' (x|z) bit
    vectors over GF(2).
    """
    if gens:
        n = gens[0].n
        if any(g.n != n for g in gens):
            raise DimensionMismatch("generators must share a qubit count")
    return 1 << len(_pivots((g.x << g.n) | g.z for g in gens))


def _symplectic(u: int, v: int, n: int) -> int:
    """The symplectic form of two ``(x << n) | z`` vectors: 0 iff the Paulis commute."""
    return bin(((u >> n) & v) ^ (u & (v >> n))).count("1") & 1


def _index_bits(masks: np.ndarray, n: int) -> np.ndarray:
    """Qubit masks as basis-index masks: qubit q is index bit ``n - 1 - q``."""
    out = np.zeros_like(masks)
    for q in range(n):
        out |= ((masks >> q) & 1) << (n - 1 - q)
    return out


@dataclass(frozen=True)
class PauliOperatorSystem:
    """``span{P_q : q in elements}`` for phase-free n-qubit Paulis, over GF(2).

    An element ``q`` is the bit vector ``(x << n) | z``; ``pivots`` is an
    echelon basis of the GF(2) span of the elements.  Distinct Paulis are
    orthogonal for the trace inner product, so the span has dimension
    ``len(elements)``, and the algebra it generates is spanned by the Paulis
    of the GF(2) span.  It offers the interface of
    :class:`locc.algebra.OperatorSystem` that the criteria use.
    """

    n: int
    elements: tuple[int, ...]
    pivots: tuple[int, ...]

    @classmethod
    def of_span(cls, n: int, pivots) -> "PauliOperatorSystem":
        elements = [0]
        for p in pivots:
            elements += [e ^ p for e in elements]
        return cls(n=n, elements=tuple(sorted(elements)), pivots=tuple(pivots))

    @property
    def dim(self) -> int:
        return 1 << self.n

    @property
    def system_dim(self) -> int:
        return len(self.elements)

    @property
    def closed_under_mult(self) -> bool:
        """A set of Paulis spans an algebra iff it is a GF(2) subspace."""
        return len(self.elements) == 1 << len(self.pivots)

    def closure(self) -> "PauliOperatorSystem":
        return self if self.closed_under_mult else PauliOperatorSystem.of_span(self.n, self.pivots)

    def is_abelian(self, tol: float | None = None) -> bool:
        """True iff the symplectic form vanishes on the span (exact; ``tol`` unused)."""
        return not any(
            _symplectic(p, q, self.n) for i, p in enumerate(self.pivots) for q in self.pivots[i + 1 :]
        )

    def decompose(self, seed: int = 0) -> AlgebraDecomposition:
        """Blocks ``2^c x (2^g, 2^(n-g-c))`` of a closed system.

        With ``v = len(pivots)``, ``2g`` the GF(2) rank of the symplectic form
        on the span and ``c = v - 2g`` the dimension of its radical (the
        center), the algebra is ``2^c`` copies of ``M_{2^g}``, each with
        multiplicity ``2^(n-g-c)``.  No projections are formed; ``seed`` is
        unused.
        """
        if not self.closed_under_mult:
            raise NotAnAlgebra("decompose requires a multiplicatively closed system")
        form = [
            sum(_symplectic(p, q, self.n) << j for j, q in enumerate(self.pivots))
            for p in self.pivots
        ]
        g = len(_pivots(form)) // 2
        c = len(self.pivots) - 2 * g
        return AlgebraDecomposition(
            dim=self.dim,
            algebra_dim=self.system_dim,
            blocks=((1 << g, 1 << (self.n - g - c)),) * (1 << c),
            projections=(),
        )

    def images(self, psi: np.ndarray) -> np.ndarray:
        """Rows ``P_q psi / sqrt(2^n)``, one per element.

        The ``P_q / sqrt(2^n)`` are orthonormal, like the basis of a dense
        system, so the rows have the same singular values as its images.
        ``(X^x Z^z psi)[j] = (-1)^{|z & (j ^ x)|} psi[j ^ x]`` in index bits,
        and the label Pauli is ``i^{|x & z|} X^x Z^z``.
        """
        d = self.dim
        q = np.array(self.elements, dtype=np.int64)
        xq, zq = q >> self.n, q & (d - 1)
        x, z = _index_bits(xq, self.n), _index_bits(zq, self.n)
        src = np.arange(d)[None, :] ^ x[:, None]
        signs = np.where(np.bitwise_count(src & z[:, None]) & 1, -1.0, 1.0)
        phases = np.array(_PHASES)[np.bitwise_count(xq & zq) % 4]
        return psi[src] * signs * (phases[:, None] / np.sqrt(d))


def build_pauli_system(ops) -> PauliOperatorSystem:
    """``S0 = span{P_a^* P_b} + C*I`` of a family of n-qubit Paulis, over GF(2).

    As :func:`locc.algebra.build_operator_system` does for dense unitaries,
    this validates the family: two members equal up to phase give the same
    state, and the first such pair in row-major order is reported as
    ``NotOrthogonalStates``.
    """
    ops = list(ops)
    if not ops:
        raise DimensionMismatch("need at least one Pauli")
    n = ops[0].n
    if any(op.n != n for op in ops):
        raise DimensionMismatch("mixed qubit counts in Pauli family")
    vecs = [(op.x << n) | op.z for op in ops]
    first, pair = {}, None
    for b, v in enumerate(vecs):
        a = first.setdefault(v, b)
        if a != b and (pair is None or a < pair[0]):
            pair = (a, b)
    if pair is not None:
        raise overlap_error(*pair)
    quotients = sorted({a ^ b for a in first for b in first})
    return PauliOperatorSystem(n=n, elements=tuple(quotients), pivots=tuple(_pivots(quotients)))


@dataclass(frozen=True)
class PauliSet:
    """An ordered family of n-qubit Paulis with no repeated element."""

    ops: tuple[PauliOp, ...]

    def __init__(self, ops) -> None:
        ops = tuple(ops)
        if not ops:
            raise BadParams("empty Pauli set")
        n = ops[0].n
        if any(op.n != n for op in ops):
            raise DimensionMismatch("mixed qubit counts in Pauli set")
        seen = set()
        for op in ops:
            ident = (op.x, op.z, op.phase)
            if ident in seen:
                raise BadParams(f"duplicate operator {op.label!r} in set")
            seen.add(ident)
        object.__setattr__(self, "ops", ops)

    @property
    def n(self) -> int:
        return self.ops[0].n

    def labels(self) -> list[str]:
        return [op.label for op in self.ops]

    def to_dense_list(self) -> list[np.ndarray]:
        return [to_dense(op) for op in self.ops]

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self):
        return iter(self.ops)


def _check_family_params(n: int, k: int) -> None:
    if not (isinstance(n, int) and isinstance(k, int)):
        raise BadParams("n and k must be integers")
    if not 1 <= k <= n:
        raise BadParams(f"need 1 <= k <= n, got k={k}, n={n}")


def logical_pauli_set(n: int, k: int) -> PauliSet:
    """All ``4^k`` Paulis acting as I/X/Y/Z on the first ``k`` qubits.

    The remaining ``n - k`` qubits carry the identity.  The corresponding
    maximally entangled states are one-way distinguishable iff ``2k <= n``.
    """
    _check_family_params(n, k)
    tail = "I" * (n - k)
    return PauliSet(from_label("".join(p) + tail) for p in product("IXYZ", repeat=k))


def lattice_indistinguishable_set(n: int, k: int) -> PauliSet:
    """A small one-way-indistinguishable family of n-fold Bell products.

    The family is, as label strings,

        ``{I,Z}^k I^(n-k)``  union  ``I^k {I,Z}^(n-k)``  union
        ``X^k {X,Y}^(n-k)``,

    of size ``2^k + 2^(n-k+1) - 1``.  Choosing ``k = floor(n/2 + 1)``
    minimizes the size over ``k``.
    """
    _check_family_params(n, k)
    labels: list[str] = []
    labels += ["".join(p) + "I" * (n - k) for p in product("IZ", repeat=k)]
    labels += ["I" * k + "".join(p) for p in product("IZ", repeat=n - k)]
    labels += ["X" * k + "".join(p) for p in product("XY", repeat=n - k)]
    unique = list(dict.fromkeys(labels))
    return PauliSet(from_label(s) for s in unique)
