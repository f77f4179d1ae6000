#!/usr/bin/env python3
"""Reference figures along the scaling axes: Pauli qubits n, sender states r,
unitary dimension d.

    python3 bench/scaling.py

Each row is the wall time of ``locc.cli.main(["decide", FILE, "--json"])`` in
one warm process, the median of three calls, on files written by
``corpus.py`` from seed 0 under ``bench/work/``.  A CLI command adds the
interpreter start and imports (``setup_s``) to these figures.
"""

import os

os.environ["OMP_NUM_THREADS"] = os.environ["OPENBLAS_NUM_THREADS"] = "1"

import contextlib  # noqa: E402
import io  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import corpus  # noqa: E402
from run import HERE, SRC  # noqa: E402


def main() -> None:
    sys.path.insert(0, SRC)
    from locc.cli import main as cli

    root = os.path.join(HERE, "work", f"scaling-{os.getpid()}")
    c = corpus.Corpus(root)
    rng = np.random.default_rng(0)
    rows = []
    for n in (3, 4, 5):
        rows.append(("n", n, "logical(n, n//2+1)", corpus.logical_labels(n, n // 2 + 1)))
        rows.append(("n", n, "lattice(n, 2)", corpus.lattice_labels(n, 2)))
    for pad in (6, 8, 10, 12):
        rows.append(("r", pad + 5, "five-state gadget after r-5 padding states", corpus.padded_gadget(rng, pad)))
    for only in (8, 16, 24, 32):
        shared = only // 3
        rows.append(("r", 2 * only + shared, "two-part YES family", corpus.two_part_instance(rng, only, shared)))
    for n in (2, 3, 4, 5):
        labels = corpus.logical_labels(n, n // 2)
        rows.append(("d", 2**n, "Haar-conjugated logical(n, n//2)", corpus.conjugated(rng, labels)))
    for d in (8, 16, 32):
        rows.append(("d", d, "cyclic shifts as matrices", [corpus.perm_matrix(p) for p in corpus.shift_images(d)]))

    print("| axis | value | family | states | decide (ms) | exit |")
    print("|---|---|---|---|---|---|")
    try:
        for i, (axis, value, family, data) in enumerate(rows):
            name = f"row{i}"
            if isinstance(data[0], str):
                c.labels(name, data)
            elif isinstance(data[0], tuple):
                c.product(name, data)
            else:
                c.unitaries(name, data)
            times = []
            for _ in range(3):
                t0 = perf_counter()
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli(["decide", c.items[-1]["path"], "--json"])
                times.append(perf_counter() - t0)
            ms = statistics.median(times) * 1000
            print(f"| {axis} | {value} | {family} | {len(data)} | {ms:.1f} | {code} |", flush=True)
    finally:
        shutil.rmtree(root, ignore_errors=True)


if __name__ == "__main__":
    main()
