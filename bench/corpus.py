"""Seeded corpora for the benchmark workloads.

Every workload is a list of items.  A ``decide`` item names a state-set file
and carries the raw data it was written from (Pauli labels, dense unitaries,
permutation images or product factors), so that ``checks.py`` can compute the
expected outcome without the program.  A ``cc`` item names a graph file and
carries the graph, plus the optimum when it is known by construction.

The same seed gives the same files.  Seeds change vectors, rotations, label
sets, graphs and the order of states; they do not change the size of any
family, so the work a pass does is about the same for every seed.
"""

from __future__ import annotations

import json
import os
from itertools import product

import numpy as np

SCHEMA = "locc/1"

_LETTERS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


# ---------------------------------------------------------------------------
# raw families
# ---------------------------------------------------------------------------


def pauli_dense(label: str) -> np.ndarray:
    m = np.ones((1, 1), dtype=complex)
    for ch in label:
        m = np.kron(m, _LETTERS[ch])
    return m


def logical_labels(n: int, k: int) -> list[str]:
    return ["".join(p) + "I" * (n - k) for p in product("IXYZ", repeat=k)]


def lattice_labels(n: int, k: int) -> list[str]:
    labels = ["".join(p) + "I" * (n - k) for p in product("IZ", repeat=k)]
    labels += ["I" * k + "".join(p) for p in product("IZ", repeat=n - k)]
    labels += ["X" * k + "".join(p) for p in product("XY", repeat=n - k)]
    return list(dict.fromkeys(labels))


def _label_of(v: int, n: int) -> str:
    """Letters of the 2n-bit vector ``x | z << n`` (qubit 0 first)."""
    out = []
    for q in range(n):
        x, z = (v >> q) & 1, (v >> (n + q)) & 1
        out.append("IXZY"[x + 2 * z])
    return "".join(out)


def symplectic_subspace_labels(rng, n: int, g: int, c: int) -> list[str]:
    """All labels of a random subspace of GF(2)^2n with symplectic rank ``2g``
    and a ``c``-dimensional radical.

    The subspace is closed, so S0 is an algebra whose block type is fixed by
    ``(n, g, c)``; random symplectic transvections pick which one.
    """
    from checks import symplectic

    basis = [1 << i for i in range(g)] + [1 << (n + i) for i in range(g + c)]
    for _ in range(6 * n):
        v = int(rng.integers(1, 1 << (2 * n)))
        basis = [b ^ v if symplectic(b, v, n) else b for b in basis]
    span = {0}
    for b in basis:
        span |= {s ^ b for s in span}
    return _shuffled(rng, [_label_of(v, n) for v in sorted(span)])


def random_label_set(rng, n: int, size: int) -> list[str]:
    """``size`` random labels whose S0 is not closed and not commutative.

    Draws are kept only when all quotients are distinct and span ``size - 1``
    dimensions, so S0 and its closure have the same size for every seed.
    """
    from checks import gf2_basis, symplectic

    while True:
        vs = [int(v) for v in rng.choice(1 << (2 * n), size=size, replace=False)]
        quotients = {a ^ b for a in vs for b in vs}
        if (
            len(quotients) == size * (size - 1) // 2 + 1
            and len(gf2_basis(quotients)) == min(size - 1, 2 * n)
            and any(symplectic(a, b, n) for a in quotients for b in quotients)
        ):
            return [_label_of(v, n) for v in vs]


def haar_unitary(rng, d: int) -> np.ndarray:
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def shift_images(d: int) -> list[list[int]]:
    return [[(i + s) % d for i in range(d)] for s in range(d)]


def product_group_images(a: int, b: int) -> list[list[int]]:
    """Regular representation of Z_a x Z_b on ``a*b`` points (abelian)."""
    out = []
    for s in range(a):
        for t in range(b):
            out.append([((i // b + s) % a) * b + (i % b + t) % b for i in range(a * b)])
    return out


def perm_matrix(image) -> np.ndarray:
    d = len(image)
    m = np.zeros((d, d), dtype=complex)
    m[list(image), list(range(d))] = 1.0
    return m


# product families -----------------------------------------------------------


def _qubit(theta: float, phi: float) -> np.ndarray:
    return np.array([np.cos(theta), np.exp(1j * phi) * np.sin(theta)])


def five_state_gadget() -> list[tuple[np.ndarray, np.ndarray]]:
    """The five-state family of the paper with no one-way protocol."""
    k0, k1 = np.eye(2, dtype=complex)
    b0, b1, b2 = np.eye(3, dtype=complex)
    return [(k1, b1), (k0, b0 + b1), (k0, b0 - b1), (k0 + k1, b2), (k0 - k1, b2)]


def four_state_family():
    k0, k1 = np.eye(2, dtype=complex)
    plus, minus = np.array([1, 1], dtype=complex), np.array([1, -1], dtype=complex)
    return [(k0, k0), (k0, k1), (k1, plus), (k1, minus)]


def _embed(v: np.ndarray, dim: int) -> np.ndarray:
    out = np.zeros(dim, dtype=complex)
    out[: v.size] = v
    return out


def rotate_pairs(rng, pairs):
    """Apply one Haar unitary to all Alice factors and one to all Bob factors.

    Overlaps, and with them both overlap graphs, are unchanged.
    """
    ua = haar_unitary(rng, pairs[0][0].size)
    ub = haar_unitary(rng, pairs[0][1].size)
    return [(ua @ a, ub @ b) for a, b in pairs]


def padded_gadget(rng, pad: int):
    """The five-state gadget after ``pad`` states that slow the sender search.

    Padding state ``i`` has a generic Alice factor (overlapping every other
    Alice factor) and its own Bob basis vector, so the search tries about
    ``2^pad`` assignments of the padding before each failure in the gadget.
    """
    db = 3 + pad
    eye = np.eye(db, dtype=complex)
    pairs = []
    for i in range(pad):
        a = _qubit(rng.uniform(0.1, 0.6), rng.uniform(0.0, np.pi / 2))
        pairs.append((a, eye[3 + i]))
    pairs += [(a, _embed(b, db)) for a, b in five_state_gadget()]
    return rotate_pairs(rng, pairs)


def ray_pair_instance(rng, r: int):
    """Random instance with Alice factors from two orthogonal ray pairs.

    Only partners (same ray pair, opposite parity) are orthogonal for Alice;
    a random half of those pairs also overlap for Bob, and every other pair
    is orthogonal for Bob through the Cholesky rows of ``I + A/(2r)``.
    """
    rays = (0.0, np.pi / 5)
    classes = [int(c) for c in rng.integers(0, 4, size=r)]
    alice = []
    for c in classes:
        th = rays[c // 2] + (np.pi / 2 if c % 2 else 0.0)
        alice.append(np.array([np.cos(th), np.sin(th)], dtype=complex))
    gram = np.eye(r)
    for u in range(r):
        for v in range(u + 1, r):
            partners = classes[u] // 2 == classes[v] // 2 and classes[u] != classes[v]
            if partners and rng.random() < 0.5:
                gram[u, v] = gram[v, u] = 1.0 / (2.0 * r)
    bob = [row.astype(complex) for row in np.linalg.cholesky(gram)]
    return rotate_pairs(rng, list(zip(alice, bob)))


def two_part_instance(rng, only: int, shared: int):
    """A distinguishable instance with ``2*only + shared`` states.

    ``only`` states sit in each part alone (Alice factor psi or psi-perp, Bob
    factors orthonormal within the part); ``shared`` states have generic Alice
    factors and Bob factors orthogonal to everything else.  Bob's space has
    dimension ``only + shared``, the least such a family allows.
    """
    db = only + shared
    psi = np.array([1, 0], dtype=complex)
    perp = np.array([0, 1], dtype=complex)
    low = np.zeros((db, db), dtype=complex)
    low[:only, :only] = haar_unitary(rng, only)
    eye = np.eye(db, dtype=complex)
    pairs = [(psi, eye[i]) for i in range(only)]
    pairs += [
        (_qubit(rng.uniform(0.3, 1.2), rng.uniform(0, 2 * np.pi)), eye[only + i])
        for i in range(shared)
    ]
    pairs += [(perp, low[:, i]) for i in range(only)]
    return rotate_pairs(rng, pairs)


# graphs ---------------------------------------------------------------------


def gnp_edges(rng, r: int, p: float) -> list[tuple[int, int]]:
    return [(u, v) for u in range(r) for v in range(u + 1, r) if rng.random() < p]


def planted_cover(rng, k: int, pool: int):
    """Graph that is a union of ``k`` cliques with a known optimal cover.

    Clique ``i`` holds two private vertices and a random part of a shared
    pool; private vertices see only their own clique, so the edge between
    them needs a clique of its own and the cover number is exactly ``k``.
    """
    r = pool + 2 * k
    while True:
        members = [set(np.flatnonzero(rng.random(pool) < 0.5).tolist()) for _ in range(k)]
        if set().union(*members) == set(range(pool)):
            break
    edges = set()
    for i, m in enumerate(members):
        clique = sorted(m | {pool + 2 * i, pool + 2 * i + 1})
        edges |= {(u, v) for j, u in enumerate(clique) for v in clique[j + 1 :]}
    perm = [int(x) for x in rng.permutation(r)]
    return r, sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges)


# ---------------------------------------------------------------------------
# files
# ---------------------------------------------------------------------------


def _cjson(z) -> list:
    return [float(z.real), float(z.imag)]


def _ket_json(v) -> list:
    return [_cjson(z) for z in v]


def _write(path: str, obj: dict) -> None:
    with open(path, "w") as fh:
        json.dump({"schema": SCHEMA, **obj}, fh)


class Corpus:
    """Files of one workload, written under ``root``, and their items."""

    def __init__(self, root: str) -> None:
        self.root = root
        self.items: list[dict] = []
        os.makedirs(root, exist_ok=True)

    def _path(self, name: str) -> str:
        return os.path.join(self.root, name + ".json")

    def labels(self, name: str, labels: list[str]) -> None:
        path = self._path(name)
        _write(path, {"kind": "pauli_labels", "n": len(labels[0]), "labels": labels})
        self.items.append({"op": "decide", "name": name, "path": path, "labels": labels})

    def unitaries(self, name: str, us, labels=None, images=None) -> None:
        path = self._path(name)
        _write(path, {
            "kind": "max_entangled",
            "d": int(us[0].shape[0]),
            "unitaries": [[_ket_json(row) for row in u] for u in us],
        })
        self.items.append({
            "op": "decide", "name": name, "path": path,
            "labels": labels, "images": images, "unitaries": list(us),
        })

    def permutations(self, name: str, images) -> None:
        path = self._path(name)
        _write(path, {"kind": "permutations", "d": len(images[0]), "perms": images})
        self.items.append({"op": "decide", "name": name, "path": path, "images": images})

    def product(self, name: str, pairs) -> None:
        path = self._path(name)
        _write(path, {
            "kind": "product",
            "dA": int(pairs[0][0].size),
            "dB": int(pairs[0][1].size),
            "states": [{"a": _ket_json(a), "b": _ket_json(b)} for a, b in pairs],
        })
        self.items.append({"op": "decide", "name": name, "path": path, "pairs": pairs})

    def graph(self, name: str, r: int, edges, optimum=None) -> None:
        path = self._path(name)
        _write(path, {"kind": "graph", "vertices": r, "edges": [list(e) for e in edges]})
        self.items.append({
            "op": "cc", "name": name, "path": path,
            "vertices": r, "edges": [tuple(e) for e in edges], "optimum": optimum,
        })


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _shuffled(rng, seq):
    return [seq[i] for i in rng.permutation(len(seq))]


def conjugated(rng, labels):
    v = haar_unitary(rng, 2 ** len(labels[0]))
    return [v @ pauli_dense(s) @ v.conj().T for s in labels]


def small_files(c: Corpus, rng) -> None:
    """README and paper examples, one or two of every input kind."""
    two = _shuffled(rng, ["I", "X"])
    c.unitaries("two", [pauli_dense(s) for s in two], labels=two)
    c.permutations("shift3", _shuffled(rng, shift_images(3)))
    c.labels("lattice22", _shuffled(rng, lattice_labels(2, 2)))
    c.labels("lattice32", _shuffled(rng, lattice_labels(3, 2)))
    c.labels("logical21", _shuffled(rng, logical_labels(2, 1)))
    c.product("four_state", _shuffled(rng, four_state_family()))
    c.product("five_state", _shuffled(rng, five_state_gadget()))
    perm = [int(x) for x in rng.permutation(4)]
    c.graph("cycle4", 4, [tuple(sorted((perm[i], perm[(i + 1) % 4]))) for i in range(4)], optimum=4)


def pauli_labels(c: Corpus, rng) -> None:
    """Dense Pauli families for n = 4 and 5 given as labels."""
    for n, k in ((4, 3), (5, 2), (5, 3)):
        c.labels(f"logical{n}{k}", _shuffled(rng, logical_labels(n, k)))
    c.labels("lattice42", _shuffled(rng, lattice_labels(4, 2)))
    c.labels("symplectic521", symplectic_subspace_labels(rng, 5, 2, 1))
    for n, size in ((4, 6), (5, 5)):
        c.labels(f"random{n}", random_label_set(rng, n, size))


def dense_unitaries(c: Corpus, rng) -> None:
    """Haar-conjugated Pauli families and permutation matrices, d <= 32."""
    for n, k in ((4, 3), (5, 2)):
        labels = _shuffled(rng, logical_labels(n, k))
        c.unitaries(f"conj_logical{n}{k}", conjugated(rng, labels), labels=labels)
    labels = _shuffled(rng, lattice_labels(5, 3))
    c.unitaries("conj_lattice53", conjugated(rng, labels), labels=labels)
    labels = symplectic_subspace_labels(rng, 5, 1, 2)
    c.unitaries("conj_symplectic512", conjugated(rng, labels), labels=labels)
    labels = random_label_set(rng, 4, 6)
    c.unitaries("conj_random", conjugated(rng, labels), labels=labels)
    for name, images in (
        ("shift16", shift_images(16)),
        ("z4z8", product_group_images(4, 8)),
    ):
        images = _shuffled(rng, images)[: len(images) // 2 + 4]
        c.unitaries(f"perm_{name}", [perm_matrix(p) for p in images], images=images)


def product_graphs(c: Corpus, rng) -> None:
    """Qubit-sender families and graphs for the clique cover."""
    for pad in (10, 11):
        c.product(f"gadget_pad{pad}", padded_gadget(rng, pad))
    from checks import overlap_graphs, two_sat_sender  # the benchmark's own 2-SAT

    for r in (12, 16, 20):
        while True:
            pairs = ray_pair_instance(rng, r)
            if two_sat_sender(*overlap_graphs(pairs)) is not None:
                break
        c.product(f"raypair{r}", pairs)
    c.product("two_part56", two_part_instance(rng, 24, 8))
    for r, p in ((14, 0.5), (16, 0.5)):
        c.graph(f"gnp{r}_{int(p * 10)}", r, gnp_edges(rng, r, p))
    for k, pool in ((5, 8), (6, 8)):
        r, edges = planted_cover(rng, k, pool)
        c.graph(f"planted{k}", r, edges, optimum=k)


WORKLOADS = {
    "small_files": small_files,
    "pauli_labels": pauli_labels,
    "dense_unitaries": dense_unitaries,
    "product_graphs": product_graphs,
}


def build(workload: str, seed: int, root: str) -> Corpus:
    c = Corpus(root)
    WORKLOADS[workload](c, np.random.default_rng([seed, sorted(WORKLOADS).index(workload)]))
    return c
