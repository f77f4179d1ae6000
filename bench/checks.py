"""Expected outcomes and certificate checks, computed without the program.

Nothing here imports ``locc``.  Pauli content is analysed over GF(2),
separating vectors and witness states with plain numpy ranks and products,
product protocols by the Born rule, sender verdicts by 2-SAT over the overlap
graphs, and clique covers against an integer program over maximal cliques
(``scipy.optimize.milp``) or an optimum known by construction.

Each ``check_*`` function returns ``None`` when the answer is right and a
one-line reason when it is not.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from corpus import five_state_gadget, four_state_family, pauli_dense, perm_matrix

TOL = 1e-9  # the program's default tolerance, used for overlap graphs
RANK_RTOL = 1e-8


# ---------------------------------------------------------------------------
# maximally entangled families
# ---------------------------------------------------------------------------


def _vec(label: str) -> int:
    n = len(label)
    v = 0
    for q, ch in enumerate(label):
        x, z = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}[ch]
        v |= x << q | z << (n + q)
    return v


def gf2_basis(vectors) -> list[int]:
    """Echelon basis (by leading bit) of the XOR span."""
    pivots: dict[int, int] = {}
    for v in vectors:
        while v:
            top = v.bit_length() - 1
            if top not in pivots:
                pivots[top] = v
                break
            v ^= pivots[top]
    return list(pivots.values())


def _gf2_rank(rows: list[int]) -> int:
    return len(gf2_basis(rows))


def symplectic(u: int, v: int, n: int) -> int:
    mask = (1 << n) - 1
    ux, uz, vx, vz = u & mask, u >> n, v & mask, v >> n
    return (bin(ux & vz).count("1") + bin(uz & vx).count("1")) & 1


def pauli_expectation(labels: list[str]) -> dict:
    """Closedness, verdict and refuting block of a Pauli family over GF(2).

    S0 is spanned by the Paulis of ``Q = {a xor b}`` (0 included); it is
    closed iff Q is a subspace V.  With ``2g`` the rank of the symplectic
    form on V and ``c = dim V - 2g`` the blocks are ``2^c x (2^g,
    2^(n-g-c))``, distinguishable iff ``2g + c <= n``.  A family whose S0 is
    not closed is distinguishable when its quotients commute (simultaneous
    Schmidt decomposition); otherwise no criterion applies.
    """
    n = len(labels[0])
    vs = [_vec(s) for s in labels]
    quotients = {a ^ b for a in vs for b in vs}
    basis = gf2_basis(quotients)
    closed = len(quotients) == 1 << len(basis)
    form = [sum(symplectic(u, v, n) << j for j, v in enumerate(basis)) for u in basis]
    g2 = _gf2_rank(form)
    g, c = g2 // 2, len(basis) - g2
    if closed:
        verdict = "distinguishable" if 2 * g + c <= n else "indistinguishable"
        block = None if verdict == "distinguishable" else (2**g, 2 ** (n - g - c))
    else:
        verdict = "distinguishable" if g2 == 0 else "criterion_not_applicable"
        block = None
    return {"verdict": verdict, "closed": closed, "block": block, "dim_s0": len(quotients)}


def permutation_expectation(images) -> dict:
    """Families of mutually deranged permutations are distinguishable.

    The corpus holds subsets of abelian groups only, so every route the
    program may take (permutation criterion or simultaneous Schmidt) ends
    in a verdict.
    """
    for p, q in combinations(images, 2):
        if any(a == b for a, b in zip(p, q)):
            raise ValueError("corpus error: permutations agree at a point")
    return {"verdict": "distinguishable", "closed": None, "block": None}


def family_matrices(item) -> list[np.ndarray]:
    if item.get("unitaries") is not None:
        return item["unitaries"]
    if item.get("labels") is not None:
        return [pauli_dense(s) for s in item["labels"]]
    return [perm_matrix(p) for p in item["images"]]


def _rank(m: np.ndarray) -> int:
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.count_nonzero(s > s[0] * RANK_RTOL)) if s.size and s[0] > 0 else 0


def check_separating_vector(us, psi, rng) -> str | None:
    """``{B psi}`` must have the rank of ``{B}`` over ``{U_a^* U_b}``.

    The rank of the ``(r^2, d^2)`` quotient matrix is taken on a Gaussian
    sketch with ``k + 8`` columns, where ``k = rank{B psi} <= d``: the
    sketch has rank ``k`` iff the quotients span exactly ``k`` dimensions.
    """
    us = np.asarray(us)
    psi = np.asarray(psi, dtype=complex)
    d = us.shape[1]
    if psi.shape != (d,) or not np.all(np.isfinite(psi)) or np.linalg.norm(psi) == 0:
        return "vector has the wrong shape or is zero"
    quot = np.einsum("aji,bjk->abik", us.conj(), us).reshape(-1, d, d)
    k = _rank(quot @ psi)
    omega = rng.standard_normal((d * d, k + 8)) + 1j * rng.standard_normal((d * d, k + 8))
    dim_b = _rank(quot.reshape(-1, d * d) @ omega)
    if dim_b != k:
        return f"rank{{B psi}} = {k} < rank{{B}} >= {dim_b}"
    return None


def check_witness_states(us, cert: dict) -> str | None:
    """``sum w |phi><phi| = I`` and ``<phi|U_a^* U_b|phi> = 0`` for ``a != b``."""
    us = np.asarray(us)
    phis = np.array([[complex(*z) for z in s] for s in cert["states"]])
    w = np.asarray(cert["weights"], dtype=float)
    d = us.shape[1]
    if phis.shape[1] != d:
        return "witness states have the wrong dimension"
    if np.max(np.abs((phis.T * w) @ phis.conj() - np.eye(d))) > 1e-8:
        return "weighted states do not resolve the identity"
    images = np.einsum("aij,kj->aki", us, phis)  # U_a |phi_k>
    for a, b in combinations(range(len(us)), 2):
        if np.max(np.abs(np.einsum("ki,ki->k", images[a].conj(), images[b]))) > 1e-8:
            return f"a diagonal term of U_{a}^* U_{b} does not vanish"
    return None


def check_unitary_decide(item, exp: dict, rec: dict, rng) -> str | None:
    if rec.get("verdict") != exp["verdict"]:
        return f"verdict {rec.get('verdict')!r}, expected {exp['verdict']!r}"
    cert = rec.get("certificate")
    if exp["verdict"] == "criterion_not_applicable":
        return None if cert is None else "a certificate for no verdict"
    if cert is None:
        return "no certificate"
    kind = cert.get("kind")
    if kind == "refuting_block":
        if exp["block"] is None or (cert.get("m"), cert.get("n")) != exp["block"]:
            return f"refuting block {(cert.get('m'), cert.get('n'))}, expected {exp['block']}"
        return None
    if exp["verdict"] != "distinguishable":
        return f"certificate kind {kind!r} for verdict {exp['verdict']!r}"
    if kind == "separating_vector":
        psi = [complex(*z) for z in cert["vector"]]
        return check_separating_vector(family_matrices(item), psi, rng)
    if kind == "witness_states":
        return check_witness_states(family_matrices(item), cert)
    return f"unexpected certificate kind {kind!r}"


# ---------------------------------------------------------------------------
# product families with a qubit sender
# ---------------------------------------------------------------------------


def _unit_rows(vs) -> np.ndarray:
    m = np.array([np.asarray(v, dtype=complex) for v in vs])
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def _overlap_graph(vs) -> set:
    m = _unit_rows(vs)
    ov = np.abs(m.conj() @ m.T)
    return {(u, v) for u, v in zip(*np.nonzero(np.triu(ov > TOL, 1)))}


def overlap_graphs(pairs):
    """``(r, G_A edges, G_B edges)``: pairs whose local factors overlap."""
    return len(pairs), _overlap_graph([a for a, _ in pairs]), _overlap_graph([b for _, b in pairs])


def two_sat_sender(r: int, ga: set, gb: set):
    """A split into two parts for a qubit sender, or ``None``.

    Variables ``x_v`` (v in V1) and ``y_v`` (v in V2); clauses: every vertex
    in some part, no G_B edge inside a part, every G_A edge inside one part.
    Solved by strongly connected components of the implication graph
    (Aspvall-Plass-Tarjan), iteratively.
    """
    nvar = 2 * r  # x_v = v, y_v = r + v; literal 2*var (+1 when negated)
    adj = [[] for _ in range(2 * nvar)]

    def clause(a: int, b: int) -> None:  # (a or b) gives (~a -> b), (~b -> a)
        adj[a ^ 1].append(b)
        adj[b ^ 1].append(a)

    def lit(var: int, neg: bool = False) -> int:
        return 2 * var + int(neg)

    for v in range(r):
        clause(lit(v), lit(r + v))
    for u, v in gb:
        clause(lit(u, True), lit(v, True))
        clause(lit(r + u, True), lit(r + v, True))
    for u, v in ga:
        for p in (u, v):
            for q in (u, v):
                clause(lit(p), lit(r + q))

    comp = _scc(adj)
    if any(comp[2 * x] == comp[2 * x + 1] for x in range(nvar)):
        return None
    # Tarjan numbers components in reverse topological order
    value = [comp[2 * x] < comp[2 * x + 1] for x in range(nvar)]
    return {v for v in range(r) if value[v]}, {v for v in range(r) if value[r + v]}


def _scc(adj) -> list[int]:
    """Component index per node (iterative Tarjan)."""
    n = len(adj)
    index = [-1] * n
    low = [0] * n
    comp = [-1] * n
    stack: list[int] = []
    on = [False] * n
    counter = ncomp = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        work = [(root, 0)]
        while work:
            v, i = work.pop()
            if i == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on[v] = True
            if i < len(adj[v]):
                work.append((v, i + 1))
                w = adj[v][i]
                if index[w] < 0:
                    work.append((w, 0))
                elif on[w]:
                    low[v] = min(low[v], index[w])
                continue
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    on[w] = False
                    comp[w] = ncomp
                    if w == v:
                        break
                ncomp += 1
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return comp


def product_expectation(pairs) -> dict:
    r, ga, gb = overlap_graphs(pairs)
    if ga & gb:
        raise ValueError("corpus error: product states are not orthogonal")
    split = two_sat_sender(r, ga, gb)
    return {"verdict": "distinguishable" if split else "indistinguishable"}


def _matrix(obj) -> np.ndarray:
    return np.array([[complex(*z) for z in row] for row in obj])


def _is_povm(elements, dim: int) -> bool:
    total = np.zeros((dim, dim), dtype=complex)
    for e in elements:
        if e.shape != (dim, dim) or np.max(np.abs(e - e.conj().T)) > 1e-8:
            return False
        if np.linalg.eigvalsh(e)[0] < -1e-8:
            return False
        total += e
    return bool(np.max(np.abs(total - np.eye(dim))) <= 1e-8)


def check_protocol(pairs, cert: dict) -> str | None:
    """Born rule: each state lands on its own label with probability 1.

    For a product state the outcome ``(k, j)`` has probability
    ``<a|A_k|a> <b|B_kj|b>``.
    """
    if cert.get("kind") != "one_way_protocol":
        return f"certificate kind {cert.get('kind')!r}"
    alice = [_matrix(m) for m in cert["alice_povm"]]
    bob = [[_matrix(m) for m in ms] for ms in cert["bob_povms"]]
    labels = {(int(k), int(j)): t for k, j, t in cert["outcome_map"]}
    da, db = pairs[0][0].size, pairs[0][1].size
    if not _is_povm(alice, da) or len(bob) != len(alice):
        return "Alice's elements are not a POVM"
    if not all(_is_povm(ms, db) for ms in bob):
        return "Bob's elements are not POVMs"
    a_rows, b_rows = _unit_rows([a for a, _ in pairs]), _unit_rows([b for _, b in pairs])
    right = np.zeros(len(pairs))
    for k, a_el in enumerate(alice):
        pa = np.einsum("ti,ij,tj->t", a_rows.conj(), a_el, a_rows).real
        for j, b_el in enumerate(bob[k]):
            if (k, j) not in labels:
                return f"outcome ({k},{j}) has no label"
            pb = np.einsum("ti,ij,tj->t", b_rows.conj(), b_el, b_rows).real
            prob = pa * pb
            t = labels[(k, j)]
            if t is None:
                continue
            wrong = np.delete(prob, t)
            if wrong.size and wrong.max() > 1e-8:
                return f"outcome ({k},{j}) names state {t} but fires for another"
            right[t] += prob[t]
    if right.min() < 1 - 1e-7:
        return f"state {int(right.argmin())} is identified with probability {right.min():.6f}"
    return None


def check_product_decide(item, exp: dict, rec: dict) -> str | None:
    if rec.get("verdict") != exp["verdict"]:
        return f"verdict {rec.get('verdict')!r}, expected {exp['verdict']!r}"
    cert = rec.get("certificate")
    if exp["verdict"] == "indistinguishable":
        return None if cert is None else "a certificate for a NO verdict"
    if cert is None:
        return "no protocol"
    return check_protocol(item["pairs"], cert)


# ---------------------------------------------------------------------------
# clique covers
# ---------------------------------------------------------------------------


def maximal_cliques(r: int, edges) -> list[int]:
    """Maximal cliques as bitmasks (Bron-Kerbosch with pivoting)."""
    nbr = [0] * r
    for u, v in edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    out: list[int] = []
    work = [(0, (1 << r) - 1, 0)]
    while work:
        clique, cand, excl = work.pop()
        if not cand and not excl:
            out.append(clique)
            continue
        pivot, best = -1, -1
        scan = cand | excl
        while scan:
            b = scan & -scan
            u = b.bit_length() - 1
            count = bin(cand & nbr[u]).count("1")
            if count > best:
                best, pivot = count, u
            scan ^= b
        todo = cand & ~nbr[pivot]
        while todo:
            b = todo & -todo
            v = b.bit_length() - 1
            work.append((clique | b, cand & nbr[v], excl & nbr[v]))
            cand &= ~b
            excl |= b
            todo ^= b
    return out


def cover_optimum(r: int, edges) -> int:
    """Least number of cliques covering every vertex and edge (exact ILP)."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    if r == 0:
        return 0
    cliques = maximal_cliques(r, edges)
    rows = [[(c >> v) & 1 for c in cliques] for v in range(r)]
    rows += [[(c >> u) & (c >> v) & 1 for c in cliques] for u, v in edges]
    a = np.array(rows, dtype=float)
    res = milp(
        c=np.ones(len(cliques)),
        constraints=LinearConstraint(a, lb=1, ub=np.inf),
        integrality=np.ones(len(cliques)),
        bounds=Bounds(0, 1),
    )
    if not res.success:
        raise RuntimeError(f"milp failed: {res.message}")
    return int(round(res.fun))


def cc_expectation(item) -> dict:
    r, edges = item["vertices"], sorted(item["edges"])
    optimum = item["optimum"] if item["optimum"] is not None else cover_optimum(r, edges)
    return {"vertices": r, "edges": edges, "optimum": optimum}


def check_cover(exp: dict, rec: dict) -> str | None:
    r, edges = exp["vertices"], set(map(tuple, exp["edges"]))
    parts = [set(p) for p in rec.get("cover", [])]
    if rec.get("cc") != len(parts):
        return "cc does not count the parts"
    covered_v, covered_e = set(), set()
    for p in parts:
        if not p <= set(range(r)):
            return "a part names a vertex out of range"
        pe = {(u, v) for u, v in combinations(sorted(p), 2)}
        if not pe <= edges:
            return f"part {sorted(p)} is not a clique"
        covered_v |= p
        covered_e |= pe
    if covered_v != set(range(r)) or covered_e != edges:
        return "the parts miss a vertex or an edge"
    if len(parts) != exp["optimum"]:
        return f"cover of size {len(parts)}, optimum {exp['optimum']}"
    return None


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def expectation(item) -> dict:
    if item["op"] == "cc":
        return cc_expectation(item)
    if item.get("pairs") is not None:
        return product_expectation(item["pairs"])
    if item.get("labels") is not None:
        return pauli_expectation(item["labels"])
    return permutation_expectation(item["images"])


_EXIT = {"distinguishable": 0, "indistinguishable": 1, "criterion_not_applicable": 2}


def expected_exit(item, exp: dict) -> int:
    return 0 if item["op"] == "cc" else _EXIT[exp["verdict"]]


def check_output(item, exp: dict, rec: dict, rng) -> str | None:
    """Check one ``--json`` record of ``decide`` or ``cc`` for ``item``."""
    if item["op"] == "cc":
        return check_cover(exp, rec)
    if item.get("pairs") is not None:
        return check_product_decide(item, exp, rec)
    return check_unitary_decide(item, exp, rec, rng)


# ---------------------------------------------------------------------------
# negative tests: every check rejects a corrupted answer
# ---------------------------------------------------------------------------


def _require(ok: bool, msg: str) -> None:
    if not ok:
        raise RuntimeError(f"benchmark self-test: {msg}")


def negative_tests() -> None:
    """Raise ``RuntimeError`` unless each check accepts a right answer and
    rejects a corrupted one.  Cheap; the benchmark runs it before timing."""
    rng = np.random.default_rng(7)

    def both(name, good, bad):
        _require(good is None, f"{name}: right answer rejected: {good}")
        _require(bad is not None, f"{name}: corrupted answer accepted")

    # GF(2) expectations against known families
    _require(pauli_expectation(["I", "X"])["verdict"] == "distinguishable", "GF(2) verdict of [I, X]")
    lat = pauli_expectation(["II", "IZ", "ZI", "ZZ", "XX"])
    _require(lat["closed"] and lat["block"] == (2, 1), "GF(2) block of lattice(2,2)")
    not_closed = pauli_expectation(["II", "XI", "ZI", "XX"])
    _require(not_closed["verdict"] == "criterion_not_applicable", "GF(2) verdict, not closed")
    log = pauli_expectation(["II", "XI", "YI", "ZI"])
    _require(log["closed"] and log["verdict"] == "distinguishable", "GF(2) verdict of logical(2,1)")
    one = pauli_expectation(["I", "X", "Y", "Z"])
    _require(one["closed"] and one["block"] == (2, 1), "GF(2) block of logical(1,1)")

    # verdicts and refuting blocks
    item = {"labels": ["I", "X", "Y", "Z"]}
    good = {"verdict": "indistinguishable", "certificate": {"kind": "refuting_block", "m": 2, "n": 1}}
    bad = {"verdict": "indistinguishable", "certificate": {"kind": "refuting_block", "m": 1, "n": 1}}
    both("refuting block", check_unitary_decide(item, one, good, rng),
         check_unitary_decide(item, one, bad, rng))
    flipped = {"verdict": "distinguishable", "certificate": None}
    _require(check_unitary_decide(item, one, flipped, rng) is not None, "flipped verdict accepted")

    # separating vectors: |+> is an eigenvector of X, so X|+> and |+> are dependent
    us = [pauli_dense("I"), pauli_dense("X")]
    generic = np.array([0.8, 0.6j])
    plus = np.array([1, 1]) / np.sqrt(2)
    both("separating vector", check_separating_vector(us, generic, rng),
         check_separating_vector(us, plus, rng))

    # witness states: the standard basis for cyclic shifts, then one tilted state
    shifts = [perm_matrix([(i + s) % 3 for i in range(3)]) for s in range(3)]
    eye = np.eye(3)
    cert = {"states": [[[x, 0] for x in row] for row in eye], "weights": [1, 1, 1]}
    tilted = {"states": [[[1, 0], [0, 0], [0, 0]], [[0, 0], [0.6, 0], [0.8, 0]],
                         [[0, 0], [-0.8, 0], [0.6, 0]]], "weights": [1, 1, 1]}
    both("witness states", check_witness_states(shifts, cert), check_witness_states(shifts, tilted))

    # Born rule on the four-state family; then two labels swapped
    pairs = [(np.asarray(a), np.asarray(b)) for a, b in four_state_family()]
    k0, k1 = np.outer(eye[0, :2], eye[0, :2]), np.outer(eye[1, :2], eye[1, :2])
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    pp, pm = np.outer(h[0], h[0]), np.outer(h[1], h[1])

    def mj(m):
        return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(m, dtype=complex)]

    proto = {"kind": "one_way_protocol", "alice_povm": [mj(k0), mj(k1)],
             "bob_povms": [[mj(k0), mj(k1)], [mj(pp), mj(pm)]],
             "outcome_map": [[0, 0, 0], [0, 1, 1], [1, 0, 2], [1, 1, 3]]}
    swapped = dict(proto, outcome_map=[[0, 0, 1], [0, 1, 0], [1, 0, 2], [1, 1, 3]])
    both("Born rule", check_protocol(pairs, proto), check_protocol(pairs, swapped))

    # 2-SAT sender verdicts: four-state family YES, five-state gadget NO
    _require(two_sat_sender(*overlap_graphs(pairs)) is not None, "2-SAT misses a YES")
    gadget = [(np.asarray(a), np.asarray(b)) for a, b in five_state_gadget()]
    _require(two_sat_sender(*overlap_graphs(gadget)) is None, "2-SAT misses a NO")
    exp = product_expectation(gadget)
    flipped = {"verdict": "distinguishable"}
    _require(check_product_decide({"pairs": gadget}, exp, flipped) is not None, "flipped sender verdict accepted")

    # clique covers: the 4-cycle needs its four edges
    cycle = [(0, 1), (1, 2), (2, 3), (0, 3)]
    exp = {"vertices": 4, "edges": cycle, "optimum": cover_optimum(4, cycle)}
    _require(exp["optimum"] == 4, "ILP optimum of the 4-cycle")
    good = {"cc": 4, "cover": [[0, 1], [1, 2], [2, 3], [0, 3]]}
    both("cover", check_cover(exp, good), check_cover(exp, {"cc": 3, "cover": [[0, 1], [1, 2], [2, 3]]}))
    non_clique = {"cc": 4, "cover": [[0, 1, 2], [2, 3], [0, 3], [1, 2]]}
    _require(check_cover(exp, non_clique) is not None, "a part that is not a clique accepted")
    too_big = {"cc": 5, "cover": good["cover"] + [[0, 1]]}
    _require(check_cover(exp, too_big) is not None, "a cover above the optimum accepted")
