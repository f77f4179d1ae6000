"""Command line interface.

Subcommands::

    locc decide STATES [--criterion C] [--tol T] [--seed S] [--json]
    locc gen --family {lattice,logical-pauli} --n N --k K OUT
    locc verify STATES PROTOCOL [--tol T] [--json]
    locc cc FILE [--side {A,B,Bbar}] [--tol T] [--json]

Exit codes: ``0`` distinguishable / verified / success, ``1``
indistinguishable / not verified, ``2`` no applicable criterion reached a
verdict, ``4`` bad input or usage.  The environment variable ``LOCC_TOL``
overrides the default tolerance; an explicit ``--tol`` wins over both.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import io
from .algebra import (
    algebra_closure,
    build_operator_system,
    check_permutation_states,
    decide_system,
    decompose,
    find_separating_vector,
    is_abelian,
    is_separating,
)
from .core import DEFAULT_TOL, Decision
from .errors import BadParams, LoccError, NotOrthogonalStates
from .graphs import complement, decide_qubit_sender, extract_qubit_protocol, minimum_clique_cover
from .oracles import DEFAULT_SEED, simulate_one_way_protocol

EXIT_DISTINGUISHABLE = 0
EXIT_INDISTINGUISHABLE = 1
EXIT_NOT_APPLICABLE = 2
EXIT_ERROR = 4

_VERDICT_TEXT = {
    Decision.DISTINGUISHABLE: "distinguishable by one-way LOCC (Alice measures first)",
    Decision.INDISTINGUISHABLE: "NOT distinguishable by one-way LOCC (Alice measures first)",
    Decision.CRITERION_NOT_APPLICABLE: "no applicable criterion reached a verdict",
}

_EXIT_BY_DECISION = {
    Decision.DISTINGUISHABLE: EXIT_DISTINGUISHABLE,
    Decision.INDISTINGUISHABLE: EXIT_INDISTINGUISHABLE,
    Decision.CRITERION_NOT_APPLICABLE: EXIT_NOT_APPLICABLE,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors must not collide with exit code 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _tolerance(args) -> float:
    if args.tol is not None:
        return args.tol
    env = os.environ.get("LOCC_TOL")
    if env:
        try:
            return float(env)
        except ValueError:
            raise BadParams(f"LOCC_TOL={env!r} is not a number") from None
    return DEFAULT_TOL


def _emit(args, record: dict, text: str) -> None:
    if getattr(args, "json", False):
        record.setdefault("schema", io.SCHEMA)
        json.dump(record, sys.stdout, indent=1, default=_json_default)
        sys.stdout.write("\n")
    else:
        print(text)


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


# ---------------------------------------------------------------------------
# decide
# ---------------------------------------------------------------------------


def _perm_certificate(d: int) -> dict:
    # the standard basis with unit weights witnesses distinguishability
    # whenever all pairwise permutation quotients are fixed-point free
    eye = np.eye(d)
    return {
        "kind": "witness_states",
        "states": [io.ket_json(eye[k]) for k in range(d)],
        "weights": [1.0] * d,
    }


def _vector_certificate(vec) -> dict:
    return {"kind": "separating_vector", "vector": io.ket_json(vec)}


def _run_decide_criterion(name: str, sfile: io.StateSetFile, system, tol: float, seed: int):
    """Run one criterion; return (decision | None, certificate, detail)."""
    if name == "permutation":
        if not check_permutation_states(sfile.perms):
            raise NotOrthogonalStates("two permutations agree at some point, so their states overlap")
        d = len(sfile.perms[0])
        return Decision.DISTINGUISHABLE, _perm_certificate(d), "all permutation quotients are derangements"

    if name == "schmidt":
        if not is_abelian(system, tol):
            return None, None, "no simultaneous Schmidt decomposition"
        closure = system if system.closed_under_mult else algebra_closure(system)
        cert = find_separating_vector(closure, seed=seed, tol=tol)
        return (
            Decision.DISTINGUISHABLE,
            _vector_certificate(cert.vector),
            "the family admits a simultaneous Schmidt decomposition",
        )

    if name == "algebra":
        verdict = decide_system(system, tol=tol, seed=seed)
        blocks = verdict.decomposition.blocks
        if verdict.decision is Decision.CRITERION_NOT_APPLICABLE:
            return None, None, f"operator system is not multiplicatively closed (closure blocks: {blocks})"
        if verdict.decision is Decision.DISTINGUISHABLE:
            return (
                verdict.decision,
                _vector_certificate(verdict.certificate.vector),
                f"separating vector exists (blocks: {blocks})",
            )
        m, n = verdict.certificate.block
        return (
            verdict.decision,
            {"kind": "refuting_block", "m": m, "n": n},
            f"block with m={m} > n={n} rules out a separating vector (blocks: {blocks})",
        )

    if name == "qubit-sender":
        pset = sfile.product_set(tol)
        verdict = decide_qubit_sender(pset, tol)
        if verdict.decision is Decision.DISTINGUISHABLE:
            protocol = extract_qubit_protocol(pset, verdict.certificate, tol)
            cert = io.protocol_json(protocol)
            cert["v1"] = sorted(verdict.certificate.v1)
            cert["v2"] = sorted(verdict.certificate.v2)
            return verdict.decision, cert, "two independent sets cover the instance"
        return verdict.decision, None, "no two-clique sandwich cover exists (exhaustive search)"

    raise BadParams(f"unknown criterion {name!r}")


def cmd_decide(args) -> int:
    tol = _tolerance(args)
    sfile = io.load_state_set_file(args.states)

    if args.criterion == "auto":
        if sfile.is_product:
            chain = ["qubit-sender"] if sfile.dA == 2 else []
        elif sfile.kind == "permutations":
            chain = ["permutation"]  # it always reaches a verdict
        else:
            chain = ["schmidt", "algebra"]
    else:
        chain = [args.criterion]
        if (args.criterion == "qubit-sender") != sfile.is_product:
            raise BadParams(
                f"criterion {args.criterion!r} does not apply to a {sfile.kind!r} state set"
            )
        if args.criterion == "permutation" and sfile.kind != "permutations":
            raise BadParams("the permutation criterion needs a permutations state set")

    start = time.perf_counter()
    # one operator system, hence one validation, for both criteria on unitaries
    system = build_operator_system(sfile.unitaries, tol) if {"schmidt", "algebra"} & set(chain) else None
    decision, certificate, detail, used = (
        Decision.CRITERION_NOT_APPLICABLE,
        None,
        "no applicable criterion",
        None,
    )
    for name in chain:
        got, cert, note = _run_decide_criterion(name, sfile, system, tol, args.seed)
        if got is not None:
            decision, certificate, detail, used = got, cert, note, name
            break
        detail = note
    elapsed_ms = (time.perf_counter() - start) * 1000

    if certificate is not None:
        # carry the schema tag so the extracted object is itself a valid
        # certificate file for `locc verify`
        certificate = {"schema": io.SCHEMA, **certificate}
    record = {
        "command": "decide",
        "input": args.states,
        "kind": sfile.kind,
        "criterion": used,
        "verdict": decision.value,
        "detail": detail,
        "tol": tol,
        "seed": args.seed,
        "timing_ms": round(elapsed_ms, 3),
        "certificate": certificate,
    }
    text = f"{_VERDICT_TEXT[decision]}\n  criterion: {used or 'none'}\n  {detail}"
    _emit(args, record, text)
    return _EXIT_BY_DECISION[decision]


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def cmd_gen(args) -> int:
    from .pauli import lattice_indistinguishable_set, logical_pauli_set

    if not (1 <= args.k <= args.n <= 6):
        raise BadParams(f"need 1 <= k <= n <= 6, got n={args.n}, k={args.k}")
    if args.family == "lattice":
        pset = lattice_indistinguishable_set(args.n, args.k)
    else:
        pset = logical_pauli_set(args.n, args.k)
    io.write_json(
        args.out,
        {"kind": "pauli_labels", "n": args.n, "labels": pset.labels()},
    )
    print(f"wrote {len(pset)} {args.family} labels (n={args.n}, k={args.k}) to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _verify(sfile: io.StateSetFile, pfile: io.ProtocolFile, tol: float) -> tuple[bool, str]:
    from .core import verify_witness_isometry, verify_witness_states
    from .graphs import verify_product_protocol

    kind = pfile.kind
    if kind in ("separating_vector", "refuting_block", "witness_states", "witness_isometry"):
        if sfile.is_product:
            raise BadParams(f"certificate kind {kind!r} applies to unitary state sets")
        us = sfile.unitaries

        if kind == "witness_states":
            ok = verify_witness_states(pfile.weighted_states, us, tol)
            return ok, "weighted states kill all off-diagonal quotients" if ok else "a quotient has a nonzero diagonal term"

        if kind == "witness_isometry":
            ok = verify_witness_isometry(pfile.isometry, us, tol)
            return ok, "isometry kills all quotient diagonals" if ok else "a quotient diagonal does not vanish"

        system = build_operator_system(us, tol)
        if kind == "separating_vector":
            closure = system if system.closed_under_mult else algebra_closure(system)
            if not is_separating(closure, pfile.vector, tol):
                return False, "the vector does not separate the operator system"
            if system.closed_under_mult:
                return True, "separating vector for a multiplicatively closed system"
            if is_abelian(system, tol):
                return True, "separating vector for an abelian closure (simultaneous Schmidt)"
            return False, "system not closed and not abelian: the vector proves nothing"

        # refuting_block
        if not system.closed_under_mult:
            return False, "operator system is not multiplicatively closed"
        dec = decompose(system)
        m, n = pfile.block
        if (m, n) in dec.blocks and m > n:
            return True, f"block ({m},{n}) with m > n is present"
        return False, f"claimed block ({m},{n}) absent or not refuting (blocks: {dec.blocks})"

    if kind == "one_way_protocol":
        ok = simulate_one_way_protocol(sfile.state_set(tol), pfile.protocol, tol)
        return ok, "protocol identifies every state" if ok else "protocol misidentifies some state"

    # product_protocol
    if not sfile.is_product:
        raise BadParams("a product_protocol certificate needs a product state set")
    ok = verify_product_protocol(
        sfile.product_set(tol), pfile.graph, pfile.cover, pfile.povm, tol
    )
    return ok, "graph/cover/POVM conditions all hold" if ok else "a certificate condition fails"


def cmd_verify(args) -> int:
    tol = _tolerance(args)
    sfile = io.load_state_set_file(args.states)
    pfile = io.load_protocol_file(args.protocol)
    ok, detail = _verify(sfile, pfile, tol)
    record = {
        "command": "verify",
        "states": args.states,
        "protocol": args.protocol,
        "certificate_kind": pfile.kind,
        "verified": ok,
        "detail": detail,
        "tol": tol,
    }
    _emit(args, record, f"{'VERIFIED' if ok else 'NOT VERIFIED'}: {detail}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# cc
# ---------------------------------------------------------------------------


def cmd_cc(args) -> int:
    tol = _tolerance(args)
    try:
        g = io.load_graph_file(args.file)
        side = "graph"
    except LoccError:
        sfile = io.load_state_set_file(args.file)
        pset = sfile.product_set(tol)
        side = args.side
        if side == "A":
            g = pset.graph_alice(tol)
        elif side == "B":
            g = pset.graph_bob(tol)
        else:
            g = complement(pset.graph_bob(tol))
    cover = minimum_clique_cover(g)
    record = {
        "command": "cc",
        "input": args.file,
        "side": side,
        "vertices": g.vertex_count,
        "edges": sorted(list(e) for e in g.edges),
        "cc": len(cover),
        "cover": [sorted(p) for p in cover.parts],
    }
    parts = " ".join("{" + ",".join(map(str, sorted(p))) + "}" for p in cover.parts)
    _emit(args, record, f"cc = {len(cover)}  cover: {parts}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="locc", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="decide one-way distinguishability of a state set")
    p.add_argument("states", help="state-set JSON file")
    p.add_argument(
        "--criterion",
        default="auto",
        choices=["auto", "permutation", "schmidt", "algebra", "qubit-sender"],
        help="decision criterion (auto tries them in a fixed order)",
    )
    p.add_argument("--tol", type=float, default=None, help="absolute tolerance")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="seed for randomized steps")
    p.add_argument("--json", action="store_true", help="machine-readable report on stdout")
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("gen", help="generate a named Pauli state family")
    p.add_argument("out", help="output JSON path")
    p.add_argument("--family", required=True, choices=["lattice", "logical-pauli"])
    p.add_argument("--n", type=int, required=True, help="number of qubits (<= 6)")
    p.add_argument("--k", type=int, required=True, help="family parameter (1 <= k <= n)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", help="verify a protocol/certificate against a state set")
    p.add_argument("states", help="state-set JSON file")
    p.add_argument("protocol", help="protocol/certificate JSON file")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("cc", help="exact clique cover number of a graph or state-set side")
    p.add_argument("file", help="graph JSON file, or a product state-set file")
    p.add_argument("--side", default="Bbar", choices=["A", "B", "Bbar"],
                   help="which orthogonality graph to use for product state sets")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_cc)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except LoccError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
