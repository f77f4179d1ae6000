"""Orthogonality graphs and graph-side distinguishability machinery.

A family of product states ``|a_v>|b_v>`` induces two graphs on the index
set: vertices are states, and ``u ~ v`` iff the corresponding local vectors
are *non-orthogonal* (``G_A`` from Alice's factors, ``G_B`` from Bob's).
Mutual orthogonality of the products is exactly ``G_A <= complement(G_B)``.

Distinguishability by one-way LOCC (Alice first) is controlled by clique
covers of graphs sandwiched between ``G_A`` and ``complement(G_B)``; with a
two-dimensional sender the threshold is a cover by two cliques, decided here
as 2-satisfiability by one unit-propagation pass over vertex assignments.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import (
    DEFAULT_TOL,
    PRODUCT_OVERLAP,
    Decision,
    OneWayProtocol,
    Povm,
    StateSet,
    kron_ket,
    normalized,
    require_orthogonal,
    validate_povm,
)
from .errors import (
    BadDimension,
    BadParams,
    DimensionMismatch,
    InvalidCertificate,
    InvalidPovm,
    NotSpanning,
    TooLarge,
    VertexCountMismatch,
    ZeroVector,
)

#: Exact clique-cover computations refuse graphs larger than this.
MAX_COVER_VERTICES = 20


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------


def _bits(mask: int):
    """The set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph on vertices ``0 .. vertex_count-1``.

    ``nbrs[v]`` is the neighbour mask of ``v``: bit ``u`` is set iff
    ``u ~ v``.
    """

    nbrs: tuple[int, ...]

    @classmethod
    def from_edges(cls, vertex_count: int, edges) -> "Graph":
        if vertex_count < 0:
            raise BadParams("negative vertex count")
        nbrs = [0] * vertex_count
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise BadParams(f"loop at vertex {u}")
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise BadParams(f"edge ({u},{v}) out of range")
            nbrs[u] |= 1 << v
            nbrs[v] |= 1 << u
        return cls(tuple(nbrs))

    @property
    def vertex_count(self) -> int:
        return len(self.nbrs)

    @property
    def edges(self) -> frozenset:
        """The edges as pairs ``(u, v)`` with ``u < v``."""
        return frozenset(
            (u, v) for v, m in enumerate(self.nbrs) for u in _bits(m & ((1 << v) - 1))
        )

    def has_edge(self, u: int, v: int) -> bool:
        u, v = int(u), int(v)
        r = len(self.nbrs)
        return 0 <= u < r and 0 <= v < r and bool(self.nbrs[u] >> v & 1)

    def _clique_mask(self, vertices) -> int | None:
        """Mask of ``vertices`` if all are in range and pairwise adjacent, else None."""
        mask = 0
        for v in vertices:
            v = int(v)
            if not 0 <= v < len(self.nbrs):
                return None
            mask |= 1 << v
        for v in _bits(mask):
            if mask & ~self.nbrs[v] != 1 << v:
                return None
        return mask

    def is_clique(self, vertices) -> bool:
        return self._clique_mask(vertices) is not None


def complement(g: Graph) -> Graph:
    """Complement graph on the same vertices."""
    full = (1 << g.vertex_count) - 1
    return Graph(tuple(full ^ m ^ (1 << v) for v, m in enumerate(g.nbrs)))


def is_subgraph(g1: Graph, g2: Graph) -> bool:
    """True iff ``g1`` and ``g2`` share vertices and ``E(g1) <= E(g2)``."""
    if g1.vertex_count != g2.vertex_count:
        raise VertexCountMismatch(f"{g1.vertex_count} vs {g2.vertex_count} vertices")
    return all(a & ~b == 0 for a, b in zip(g1.nbrs, g2.nbrs))


def _overlaps(vecs) -> np.ndarray:
    """``|<v_u|v_w>|`` for every pair of rows, from one Gram product."""
    stack = np.array(vecs) if len(vecs) else np.zeros((0, 0))
    return np.abs(stack.conj() @ stack.T)


def graph_from_vectors(kets, tol: float = DEFAULT_TOL) -> Graph:
    """Non-orthogonality graph of a family of vectors.

    Vertices ``u ~ v`` iff ``|<k_u|k_v>| > tol`` after normalization (the
    graph is scale invariant).  Pairs whose overlap falls within a decade of
    the threshold are reported in a ``UserWarning`` since the adjacency is
    then poorly conditioned.
    """
    vecs = [normalized(k, tol) for k in kets]
    if vecs and any(v.size != vecs[0].size for v in vecs):
        raise DimensionMismatch("vectors must share a dimension")
    return _threshold(_overlaps(vecs), tol)


def _threshold(ips: np.ndarray, tol: float) -> Graph:
    """The graph ``u ~ v`` iff ``ips[u, v] > tol``, ``ips`` the overlaps of unit vectors.

    The near-threshold warning of :func:`graph_from_vectors` is raised here;
    it names the line that called this function's caller.
    """
    # the upper triangle decides each pair once; its mirror makes the rows
    adjacent = np.triu(ips > tol, 1)
    adjacent |= adjacent.T
    rows = np.packbits(adjacent, axis=1, bitorder="little")
    us, vs = np.nonzero(np.triu((tol / 10 <= ips) & (ips <= tol * 10), 1))
    if us.size:
        pairs = ", ".join(f"({u},{v}): {ips[u, v]:.3e}" for u, v in zip(us[:8], vs[:8]))
        warnings.warn(
            f"overlaps within a decade of tol={tol:g} for pairs {pairs}; "
            "the orthogonality graph may be unreliable",
            stacklevel=3,
        )
    return Graph(tuple(int.from_bytes(row.tobytes(), "little") for row in rows))


# ---------------------------------------------------------------------------
# clique covers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CliqueCover:
    """An ordered family of vertex sets, each meant to induce a clique."""

    parts: tuple

    def __init__(self, parts) -> None:
        object.__setattr__(self, "parts", tuple(frozenset(int(v) for v in p) for p in parts))

    def __len__(self) -> int:
        return len(self.parts)


def is_clique_cover(g: Graph, cover: CliqueCover) -> bool:
    """True iff every part induces a clique and all vertices/edges are covered."""
    # covered[v]: v and its neighbours in the parts holding v
    covered = [0] * g.vertex_count
    for part in cover.parts:
        mask = g._clique_mask(part)
        if mask is None:
            return False
        for v in _bits(mask):
            covered[v] |= mask
    return all(c == m | (1 << v) for v, (c, m) in enumerate(zip(covered, g.nbrs)))


def _maximal_cliques(nbrs: tuple[int, ...]) -> list[int]:
    """Vertex masks of all maximal cliques, given neighbour masks.

    Bron-Kerbosch with Tomita pivoting (Tomita, Tanaka and Takahashi,
    Theor. Comput. Sci. 363, 2006) on bitmasks: ``P`` holds the candidates,
    ``X`` the vertices already tried.  Each call adds one vertex to the
    clique, so the recursion depth is at most the vertex count.
    """
    found: list[int] = []

    def expand(clique: int, p: int, x: int) -> None:
        if not p:
            if not x:
                found.append(clique)
            return
        # a pivot with the most neighbours among the candidates leaves the
        # fewest branches: every maximal clique holds it or a non-neighbour
        pivot, best = -1, -1
        scan = p | x
        while scan:
            u = (scan & -scan).bit_length() - 1
            scan &= scan - 1
            k = (p & nbrs[u]).bit_count()
            if k > best:
                pivot, best = u, k
        branch = p & ~nbrs[pivot]
        while branch:
            b = branch & -branch
            branch ^= b
            v = b.bit_length() - 1
            expand(clique | b, p & nbrs[v], x & nbrs[v])
            p ^= b
            x |= b

    expand(0, (1 << len(nbrs)) - 1, 0)
    return found


def _set_cover_exact(masks: list[int], universe: int) -> list[int]:
    """Minimum cover of the bit universe by the given masks (branch and bound).

    - An element ``e`` is dropped when every mask holding some other
      element ``f`` also holds ``e``: covering ``f`` covers ``e``.
    - The lower bound is a packing: elements that no single mask covers
      together each need a mask of their own.  ``reach[e]`` is the union of
      the masks that hold ``e``; an element outside the reach of every
      element picked so far shares no mask with any of them.  A first walk
      over the uncovered elements by increasing ``reach`` (a scan from the
      lowest bit, since elements are renumbered in that order) prunes most
      nodes; where it does not, a second walk picks at each step the
      element whose reach meets the fewest remaining ones.
    - The search branches on the uncovered element with the fewest usable
      owners.  Once the subtree of one owner is done, that owner is barred
      from its later siblings' subtrees: every cover holding it was seen.
    """
    owners: dict[int, int] = {}
    for e in range(universe.bit_length()):
        if universe >> e & 1:
            owners[e] = sum(1 << i for i, m in enumerate(masks) if m >> e & 1)
            if not owners[e]:
                raise BadParams("universe element covered by no set")
    kept = [
        e
        for e in owners
        if not any(
            f != e and owners[f] & ~owners[e] == 0 and (owners[f] != owners[e] or f < e)
            for f in owners
        )
    ]
    reach = {e: 0 for e in kept}
    for e in kept:
        for i, m in enumerate(masks):
            if owners[e] >> i & 1:
                reach[e] |= m
    order = sorted(kept, key=lambda e: (reach[e].bit_count(), e))

    def renumber(m: int) -> int:
        return sum(1 << k for k, e in enumerate(order) if m >> e & 1)

    sets = [renumber(m) for m in masks]
    reach_of = [renumber(reach[e]) for e in order]
    owners_of = [owners[e] for e in order]
    everything = (1 << len(order)) - 1

    # greedy upper bound
    best: list[int] = []
    uncovered = everything
    while uncovered:
        i = max(range(len(sets)), key=lambda i: (sets[i] & uncovered).bit_count())
        best.append(i)
        uncovered &= ~sets[i]
    chosen: list[int] = []

    def packing_at_least(uncovered: int, room: int) -> bool:
        """True if ``room`` elements of ``uncovered`` are found that pairwise share no mask."""
        need, rest = 0, uncovered
        while rest:
            need += 1
            rest &= ~reach_of[(rest & -rest).bit_length() - 1]
        if need >= room:
            return True
        need, rest = 0, uncovered
        while rest:
            need += 1
            if need >= room:
                return True
            pick, fewest, scan = 0, len(order) + 1, rest
            while scan:
                k = (scan & -scan).bit_length() - 1
                scan &= scan - 1
                met = (reach_of[k] & rest).bit_count()
                if met < fewest:
                    pick, fewest = k, met
            rest &= ~reach_of[pick]
        return False

    def dfs(uncovered: int, barred: int) -> None:
        nonlocal best
        if not uncovered:
            if len(chosen) < len(best):
                best = list(chosen)
            return
        if packing_at_least(uncovered, len(best) - len(chosen)):
            return
        usable, fewest, scan = 0, len(sets) + 1, uncovered
        while scan:
            k = (scan & -scan).bit_length() - 1
            scan &= scan - 1
            allowed = owners_of[k] & ~barred
            if allowed.bit_count() < fewest:
                usable, fewest = allowed, allowed.bit_count()
                if fewest <= 1:
                    break
        branches = [i for i in range(len(sets)) if usable >> i & 1]  # none: no cover here
        for i in sorted(branches, key=lambda i: -(sets[i] & uncovered).bit_count()):
            chosen.append(i)
            dfs(uncovered & ~sets[i], barred)
            chosen.pop()
            barred |= 1 << i

    dfs(everything, 0)
    return best


def minimum_clique_cover(g: Graph) -> CliqueCover:
    """An optimal clique cover (vertices and edges both covered), exact.

    Maximal cliques come from a bitmask Bron-Kerbosch with pivoting, and the
    covering subfamily from a branch-and-bound set cover over the
    vertex+edge universe.  Exponential in the worst case; refuses graphs
    with more than ``MAX_COVER_VERTICES`` vertices.
    """
    r = g.vertex_count
    if r > MAX_COVER_VERTICES:
        raise TooLarge(f"{r} vertices exceeds the exact-solver bound {MAX_COVER_VERTICES}")
    if r == 0:
        return CliqueCover(())
    edge_ids = {e: r + i for i, e in enumerate(sorted(g.edges))}
    cliques = []
    masks = []
    for c in _maximal_cliques(g.nbrs):
        vs = list(_bits(c))
        m = c
        for i, u in enumerate(vs):
            for v in vs[i + 1 :]:
                m |= 1 << edge_ids[(u, v)]
        cliques.append(frozenset(vs))
        masks.append(m)
    universe = (1 << (r + len(edge_ids))) - 1
    picked = _set_cover_exact(masks, universe)
    return CliqueCover(tuple(cliques[i] for i in picked))


def clique_cover_number(g: Graph) -> int:
    """Minimum number of cliques covering all vertices and edges of ``g``."""
    return len(minimum_clique_cover(g))


# ---------------------------------------------------------------------------
# product state families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProductStateSet:
    """Pure product states ``|a_v>|b_v>`` with normalized local factors."""

    alice: tuple
    bob: tuple
    _graphs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def from_pairs(cls, pairs, tol: float = DEFAULT_TOL) -> "ProductStateSet":
        """Build from ``(alice_ket, bob_ket)`` pairs, normalizing each factor."""
        alice, bob = [], []
        for i, (a, b) in enumerate(pairs):
            try:
                alice.append(normalized(a, tol))
                bob.append(normalized(b, tol))
            except ZeroVector as exc:
                raise ZeroVector(f"state {i}: {exc}") from None
        if not alice:
            raise BadParams("need at least one product state")
        if any(a.size != alice[0].size for a in alice) or any(
            b.size != bob[0].size for b in bob
        ):
            raise DimensionMismatch("local dimensions differ across states")
        return cls(alice=tuple(alice), bob=tuple(bob))

    @property
    def dA(self) -> int:
        return self.alice[0].size

    @property
    def dB(self) -> int:
        return self.bob[0].size

    def __len__(self) -> int:
        return len(self.alice)

    # each side's overlaps come from one Gram product per set, which every
    # graph and the orthogonality check threshold; each graph is thresholded
    # once per tol, so a decide and the checks of its certificate share it
    # and its near-threshold warning is raised once

    @cached_property
    def alice_overlaps(self) -> np.ndarray:
        return _overlaps(self.alice)

    @cached_property
    def bob_overlaps(self) -> np.ndarray:
        return _overlaps(self.bob)

    def graph_alice(self, tol: float = DEFAULT_TOL) -> Graph:
        if ("A", tol) not in self._graphs:
            self._graphs["A", tol] = _threshold(self.alice_overlaps, tol)
        return self._graphs["A", tol]

    def graph_bob(self, tol: float = DEFAULT_TOL) -> Graph:
        if ("B", tol) not in self._graphs:
            self._graphs["B", tol] = _threshold(self.bob_overlaps, tol)
        return self._graphs["B", tol]

    def require_orthogonal(self, tol: float = DEFAULT_TOL) -> None:
        """Raise ``NotOrthogonalStates`` naming the first pair of overlapping products."""
        require_orthogonal(self.alice_overlaps * self.bob_overlaps, tol, PRODUCT_OVERLAP)

    def to_state_set(self) -> StateSet:
        kets = tuple(kron_ket(a, b) for a, b in zip(self.alice, self.bob))
        return StateSet(dA=self.dA, dB=self.dB, kets=kets, kind="product")


# ---------------------------------------------------------------------------
# protocol verification (any sender dimension)
# ---------------------------------------------------------------------------


def verify_product_protocol(
    s: ProductStateSet,
    g: Graph,
    cover: CliqueCover,
    povm: Povm,
    tol: float = DEFAULT_TOL,
) -> bool:
    """Check a graph/cover/POVM certificate for product-state families.

    Mutually orthogonal product states whose Alice factors span her space
    are one-way distinguishable iff there exist a graph ``G`` with
    ``G_A <= G <= complement(G_B)``, a clique cover ``{V_j}`` of ``G`` and a
    POVM ``{Q_j}`` on Alice's side (one element per part) such that
    ``Q_j |a_v> != 0`` only when ``v`` is in ``V_j``.  This verifies the
    three conditions for given data; it does not search.
    """
    if g.vertex_count != len(s):
        raise VertexCountMismatch(f"graph on {g.vertex_count} vertices, {len(s)} states")
    stack = np.stack(s.alice)
    if np.linalg.matrix_rank(stack, tol=1e-7 * float(np.linalg.norm(stack))) < s.dA:
        raise NotSpanning("Alice's local states must span her whole space")
    s.require_orthogonal(tol)
    if len(povm) != len(cover.parts):
        raise DimensionMismatch("need exactly one POVM element per cover part")
    if povm.dim != s.dA:
        raise DimensionMismatch("POVM must act on Alice's space")
    if not validate_povm(povm, tol):
        raise InvalidPovm("Q_j are not a POVM on Alice's space")

    ga = s.graph_alice(tol)
    gb_bar = complement(s.graph_bob(tol))
    if not (is_subgraph(ga, g) and is_subgraph(g, gb_bar)):
        return False
    if not is_clique_cover(g, cover):
        return False
    for q, part in zip(povm.elements, cover.parts):
        for v in range(len(s)):
            if v not in part and np.linalg.norm(q @ s.alice[v]) > tol:
                return False
    return True


# ---------------------------------------------------------------------------
# two-dimensional sender: decision and protocol extraction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QubitSenderCertificate:
    """Witness that two cliques in ``complement(G_B)`` settle the instance.

    ``v1``/``v2`` cover all state indices, are independent in ``G_B``, and
    every edge of ``G_A`` lies inside one of them.  ``alice_basis`` holds the
    two orthonormal measurement directions; after Alice's outcome ``k`` Bob
    measures the kets of the states in ``v_k``.
    """

    v1: frozenset
    v2: frozenset
    alice_basis: tuple


@dataclass(frozen=True)
class QubitSenderVerdict:
    decision: Decision
    certificate: QubitSenderCertificate | None
    graph_alice: Graph
    graph_bob: Graph


def _union(nbrs, mask: int) -> int:
    """The union of ``nbrs[v]`` over the set bits ``v`` of ``mask``."""
    out = 0
    for v in _bits(mask):
        out |= nbrs[v]
    return out


def _two_clique_assignment(ga: Graph, gb: Graph) -> tuple[frozenset, frozenset] | None:
    """First vertex assignment to {V1, V2, both} satisfying all constraints.

    Vertices are assigned in index order with choices ordered V1-only,
    V2-only, both, so the returned pair is deterministic (the
    lexicographically least valid assignment under that choice order).  The
    constraints are a 2-CNF, so a choice whose unit propagation meets no
    conflict leaves only untouched clauses of a satisfiable formula (Even,
    Itai and Shamir, SIAM J. Comput. 5(4), 1976): each vertex keeps the
    first such choice, none is undone, and the pass takes O(r^2) mask steps.
    """
    a_nbrs, b_nbrs = ga.nbrs, gb.nbrs

    def propagate(x1, x0, y1, y0, nx1, nx0, ny1, ny0):
        # x_v (y_v) means v is in V1 (V2).  x_v=1 forces x=0 on v's G_B
        # neighbours, and x_v=0 forces y=1 on v and its G_A neighbours; the
        # same holds with x and y swapped.  None on a conflict.
        while True:
            nx1, nx0, ny1, ny0 = nx1 & ~x1, nx0 & ~x0, ny1 & ~y1, ny0 & ~y0
            if not nx1 | nx0 | ny1 | ny0:
                return x1, x0, y1, y0
            x1, x0, y1, y0 = x1 | nx1, x0 | nx0, y1 | ny1, y0 | ny0
            if x1 & x0 or y1 & y0:
                return None
            nx1, nx0, ny1, ny0 = (
                ny0 | _union(a_nbrs, ny0),
                _union(b_nbrs, nx1),
                nx0 | _union(a_nbrs, nx0),
                _union(b_nbrs, ny1),
            )

    forced = (0, 0, 0, 0)  # the masks x=1, x=0, y=1, y=0
    for v in range(ga.vertex_count):
        bit = 1 << v
        for choice in ((bit, 0, 0, bit), (0, bit, bit, 0), (bit, 0, bit, 0)):
            found = propagate(*forced, *choice)
            if found is not None:
                forced = found
                break
        else:
            return None
    return frozenset(_bits(forced[0])), frozenset(_bits(forced[2]))


def decide_qubit_sender(s: ProductStateSet, tol: float = DEFAULT_TOL) -> QubitSenderVerdict:
    """Decide one-way distinguishability for a two-dimensional sender.

    With ``dim(Alice) = 2``, mutually orthogonal product states are one-way
    distinguishable iff some graph between ``G_A`` and ``complement(G_B)``
    has a cover by at most two cliques -- equivalently, iff the vertices can
    be assigned to two sets, each independent in ``G_B``, jointly covering
    all vertices, with every ``G_A`` edge inside one set.  Those constraints
    are a 2-CNF, decided by one unit-propagation pass over the vertices.

    All-parallel Alice factors are allowed (orthogonality then forces
    ``G_B`` to be empty and Bob can do everything alone).
    """
    if s.dA != 2:
        raise BadDimension(f"sender dimension must be 2, got {s.dA}")
    s.require_orthogonal(tol)
    ga = s.graph_alice(tol)
    gb = s.graph_bob(tol)
    found = _two_clique_assignment(ga, gb)
    if found is None:
        return QubitSenderVerdict(Decision.INDISTINGUISHABLE, None, ga, gb)
    return QubitSenderVerdict(Decision.DISTINGUISHABLE, _build_certificate(s, gb, *found), ga, gb)


def _build_certificate(
    s: ProductStateSet, gb: Graph, v1: frozenset, v2: frozenset
) -> QubitSenderCertificate:
    if not any(gb.nbrs):
        # Bob's states are pairwise orthogonal: he can measure them all
        # regardless of Alice's outcome, so any basis works for her.
        everything = frozenset(range(len(s)))
        basis = (np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex))
        return QubitSenderCertificate(v1=everything, v2=everything, alice_basis=basis)
    shared = v1 & v2
    only1 = sorted(v1 - shared)
    only2 = sorted(v2 - shared)
    # if either part were contained in the other, its union would be an
    # independent set equal to V, i.e. G_B would have no edges (handled above)
    rep1, rep2 = only1[0], only2[0]
    psi1 = normalized(s.alice[rep1])
    # exact orthogonal complement in C^2; rep2's factor is parallel to it
    psi2 = np.array([-np.conj(psi1[1]), np.conj(psi1[0])])
    if abs(np.vdot(psi2, s.alice[rep2])) <= DEFAULT_TOL:
        raise InvalidCertificate("representative states are not orthogonal")
    return QubitSenderCertificate(v1=v1, v2=v2, alice_basis=(psi1, psi2))


def validate_qubit_certificate(
    s: ProductStateSet, cert: QubitSenderCertificate, tol: float = DEFAULT_TOL
) -> None:
    """Raise ``InvalidCertificate`` unless the witness is structurally sound.

    Checks, for ``j = 1, 2``: the parts cover all indices and are
    independent in ``G_B``; every ``G_A`` edge lies inside a part; the basis
    is orthonormal; and the zero-error condition ``<psi_j|a_v> = 0`` for
    every ``v`` outside ``V_j``.
    """
    r = len(s)
    v1, v2 = set(cert.v1), set(cert.v2)
    if v1 | v2 != set(range(r)):
        raise InvalidCertificate("parts do not cover all state indices")
    m1, m2 = (sum(1 << int(v) for v in part) for part in (v1, v2))
    gb = s.graph_bob(tol)
    ga = s.graph_alice(tol)
    for name, mask in (("v1", m1), ("v2", m2)):
        if any(gb.nbrs[v] & mask for v in _bits(mask)):
            raise InvalidCertificate(f"{name} is not independent in G_B")
    for v, nbrs in enumerate(ga.nbrs):
        # the G_A neighbours of v must share a part with it
        outside = nbrs & ~((m1 if m1 >> v & 1 else 0) | (m2 if m2 >> v & 1 else 0))
        if outside:
            # an edge to an earlier vertex would have been caught there
            raise InvalidCertificate(f"G_A edge ({v},{next(_bits(outside))}) lies inside neither part")
    if len(cert.alice_basis) != 2:
        raise InvalidCertificate("alice_basis must hold exactly two kets")
    b1, b2 = (np.asarray(b, dtype=complex).ravel() for b in cert.alice_basis)
    if b1.size != s.dA or s.dA != 2:
        raise InvalidCertificate("alice_basis kets must live in C^2")
    gram = np.array([[np.vdot(b1, b1), np.vdot(b1, b2)], [np.vdot(b2, b1), np.vdot(b2, b2)]])
    if np.max(np.abs(gram - np.eye(2))) > max(tol, 1e-7):
        raise InvalidCertificate("alice_basis is not orthonormal")
    for j, (basis_ket, part) in enumerate(zip((b1, b2), (v1, v2)), start=1):
        for v in range(r):
            if v not in part and abs(np.vdot(basis_ket, s.alice[v])) > max(tol, 1e-7):
                raise InvalidCertificate(
                    f"state {v} outside v{j} is not orthogonal to psi_{j}"
                )


def extract_qubit_protocol(
    s: ProductStateSet, cert: QubitSenderCertificate, tol: float = DEFAULT_TOL
) -> OneWayProtocol:
    """Turn a certificate into an explicit zero-error one-way protocol.

    Alice measures in ``cert.alice_basis``; on outcome ``k`` Bob measures
    the (orthonormal) kets of the states in ``sorted(v_k)`` plus the
    projection onto their orthogonal complement, which is mapped to the
    inconclusive label ``None`` and never fires on valid certificates.
    """
    validate_qubit_certificate(s, cert, tol)
    b1, b2 = (np.asarray(b, dtype=complex).ravel() for b in cert.alice_basis)
    alice_povm = [np.outer(b1, b1.conj()), np.outer(b2, b2.conj())]
    bob_povms = []
    outcome_map = {}
    for k, part in enumerate((sorted(cert.v1), sorted(cert.v2))):
        kets = [normalized(s.bob[v]) for v in part]
        elements = [np.outer(b, b.conj()) for b in kets]
        for j, v in enumerate(part):
            outcome_map[(k, j)] = v
        rest = np.eye(s.dB, dtype=complex) - sum(elements)
        if np.max(np.abs(rest)) > tol:
            elements.append(rest)
            outcome_map[(k, len(part))] = None
        bob_povms.append(elements)
    protocol = OneWayProtocol(alice_povm, bob_povms, outcome_map)
    protocol.validate(s.dA, s.dB, max(tol, 1e-7))
    return protocol
