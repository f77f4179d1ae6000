"""Independent oracles used to cross-check the fast decision paths.

Everything here but the protocol check is deliberately naive: literal
enumeration over sandwich graphs, randomized searches for separating
vectors and dense matrix group closures.  The fast implementations
elsewhere in the package are tested against these.  The Born-rule
simulation of full protocols, which ``locc verify`` runs on every
``one_way_protocol`` certificate, is batched over states and outcomes; its
literal form, one ``A_k (x) B_kj`` per state and outcome, lives in the
tests as its reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_TOL, OneWayProtocol, StateSet
from .errors import BadParams, InvalidProtocol, TooLarge

#: Default seed for every randomized oracle (reproducible by default).
DEFAULT_SEED = 0xC0FFEE

#: `sandwich_enumerate` refuses instances with more optional edges than this.
MAX_SANDWICH_EDGES = 24

#: `dense_pauli_oracle` refuses more qubits than this (group size 4^n).
MAX_DENSE_QUBITS = 5


@dataclass(frozen=True)
class OracleReport:
    """Outcome of an oracle run (``verdict=None`` means inconclusive)."""

    verdict: bool | None
    method: str
    trials: int = 0
    seed: int | None = None
    note: str = ""


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """A Haar-random unitary (QR of a Ginibre matrix, phases fixed)."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def sandwich_enumerate(ga, gb_bar, max_missing: int = MAX_SANDWICH_EDGES) -> OracleReport:
    """Literal search for a sandwich graph with a two-clique cover.

    Enumerates every graph ``G`` with ``G_A <= G <= complement(G_B)`` (all
    subsets of the optional edges) and tests ``clique_cover_number(G) <= 2``
    exactly.  This is the brute-force ground truth for the two-dimensional
    sender decision; it is exponential and refuses more than
    ``max_missing`` optional edges.
    """
    from .graphs import Graph, clique_cover_number, is_subgraph

    if not is_subgraph(ga, gb_bar):
        raise BadParams("need G_A <= complement(G_B): the states are not orthogonal")
    optional = sorted(gb_bar.edges - ga.edges)
    if len(optional) > max_missing:
        raise TooLarge(f"{len(optional)} optional edges exceeds bound {max_missing}")
    base = ga.edges
    for mask in range(1 << len(optional)):
        extra = {e for i, e in enumerate(optional) if mask >> i & 1}
        g = Graph.from_edges(ga.vertex_count, base | extra)
        if clique_cover_number(g) <= 2:
            return OracleReport(
                verdict=True,
                method="sandwich_enumerate",
                note=f"graph with {len(extra)} added edges has a 2-clique cover",
            )
    return OracleReport(
        verdict=False,
        method="sandwich_enumerate",
        note=f"no 2-clique-coverable graph among {1 << len(optional)} candidates",
    )


def randomized_separating_oracle(
    system, trials: int = 20, seed: int = DEFAULT_SEED, tol: float = DEFAULT_TOL
) -> OracleReport:
    """Search for a separating vector by random sampling.

    A ``True`` verdict is a certified witness; ``False`` only says that no
    sampled vector worked (one-sided), although separating vectors form a
    full-measure set whenever one exists, so false negatives have
    probability zero in exact arithmetic.
    """
    from .algebra import is_separating

    rng = np.random.default_rng(seed)
    d = system.dim
    for t in range(trials):
        psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        psi /= np.linalg.norm(psi)
        if is_separating(system, psi, tol):
            return OracleReport(
                verdict=True,
                method="randomized_separating",
                trials=t + 1,
                seed=seed,
                note="witness found",
            )
    return OracleReport(
        verdict=False,
        method="randomized_separating",
        trials=trials,
        seed=seed,
        note="no witness found (one-sided)",
    )


def dense_pauli_oracle(ops) -> int:
    """Span dimension of the group generated by Paulis, on dense matrices.

    Closes the generated group by breadth-first multiplication of explicit
    ``2^n x 2^n`` matrices (members identified up to a global phase via
    ``|tr(x^* y)| = 2^n``), then returns the rank of the stacked vectorized
    elements.  Independent of the symplectic bookkeeping in
    :mod:`locc.pauli`, against which it is tested.
    """
    from .pauli import PauliSet, to_dense

    ops = list(ops.ops if isinstance(ops, PauliSet) else ops)
    if not ops:
        return 1
    n = ops[0].n
    if n > MAX_DENSE_QUBITS:
        raise TooLarge(f"{n} qubits exceeds the dense oracle bound {MAX_DENSE_QUBITS}")
    d = 2**n
    gens = [to_dense(op) for op in ops]

    elements = [np.eye(d, dtype=complex)]
    rows = [elements[0].ravel().conj()]
    frontier = [elements[0]]
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                p = e @ g
                overlaps = np.abs(np.stack(rows) @ p.ravel())
                if np.max(overlaps) >= d - 1e-6:
                    continue  # already present up to a global phase
                elements.append(p)
                rows.append(p.ravel().conj())
                nxt.append(p)
        frontier = nxt

    stacked = np.stack([e.ravel() for e in elements])
    s = np.linalg.svd(stacked, compute_uv=False)
    return int(np.sum(s > s[0] * 1e-7))


def simulate_one_way_protocol(
    s: StateSet, protocol: OneWayProtocol, tol: float = DEFAULT_TOL
) -> bool:
    """Born-rule check that a protocol identifies every state with certainty.

    For each state ``psi_t`` and outcome pair ``(k, j)`` the probability is
    ``<psi_t| A_k (x) B_kj |psi_t>``.  Returns ``True`` iff, for every
    ``t``, outcomes mapped to ``t`` carry total probability 1 (within tol)
    and no outcome mapped to a different index fires.

    With ``psi_t`` reshaped to the ``dA x dB`` matrix ``Psi_t``, that
    probability is the entrywise sum of ``M_t o B_kj`` with
    ``M_t = Psi_t^* A_k Psi_t``, so each Alice outcome costs two batched
    products over all states and Bob outcomes at once.
    """
    protocol.validate(s.dA, s.dB, max(tol, 1e-9))
    for k, bob in enumerate(protocol.bob_povms):
        for j in range(len(bob)):
            if (k, j) not in protocol.outcome_map:
                raise InvalidProtocol(f"outcome ({k},{j}) has no classification")

    slack = tol * 10
    kets = np.stack(s.kets)
    r = len(kets)
    psi = kets.reshape(r, s.dA, s.dB)
    psi_adj = psi.conj().transpose(0, 2, 1)
    correct = np.zeros(r)
    wrong = np.zeros(r, dtype=bool)
    states = np.arange(r)[:, None]
    for k, a_el in enumerate(protocol.alice_povm):
        m = psi_adj @ (a_el @ psi)  # M_t for every t
        bob = np.stack(protocol.bob_povms[k])
        probs = (m.reshape(r, -1) @ bob.reshape(len(bob), -1).T).real  # sum of M_t o B_kj
        labels = [protocol.outcome_map[(k, j)] for j in range(len(bob))]
        mapped = np.array([t is not None for t in labels])
        target = np.array([t if t is not None and 0 <= t < r else -1 for t in labels])
        hit = target == states
        correct += np.where(hit, probs, 0.0).sum(axis=1)
        wrong |= (mapped & ~hit & (probs > slack)).any(axis=1)
    fails = wrong | (correct < 1.0 - max(slack, 1e-7))
    norm_defects = np.abs(np.linalg.norm(kets, axis=1) - 1.0)
    for t in range(r):  # in state order, as a state-by-state check would meet them
        if norm_defects[t] > 1e-6:
            raise BadParams(f"state {t} is not normalized")
        if fails[t]:
            return False
    return True


__all__ = [
    "OracleReport",
    "DEFAULT_SEED",
    "haar_unitary",
    "sandwich_enumerate",
    "randomized_separating_oracle",
    "dense_pauli_oracle",
    "simulate_one_way_protocol",
]
