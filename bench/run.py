#!/usr/bin/env python3
"""Benchmark of the ``locc`` command line, end to end and per layer.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload's corpus (``corpus.py``) is written from the seed under
``bench/work/``.  With ``--trace 0`` the corpus is run in whole passes
(every ``decide``, then ``verify`` on each certificate those decides
emitted, then every ``cc``) through ``python -m locc.cli`` subprocesses, one
command at a time, each pass after a fresh ``import locc.cli`` (``setup_s``);
after each such pass, the same passes run through ``locc.cli.main(argv)`` in
this process for a fifth of that time.  With ``--trace 1`` the in-process
passes alternate between untraced and traced (``spans.py``) and the
per-layer metrics are reported; the spans are written to ``bench/out/``.  Every output is checked against ``checks.py``, outside
the timed regions.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

#: BLAS threads for the benchmark and every command it runs; 1 never exceeds nproc.
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
ENV = dict(os.environ, PYTHONPATH="src")
CLI = [sys.executable, "-m", "locc.cli"]
SETUP = [sys.executable, "-c", "import locc.cli"]
COMMAND_TIMEOUT_S = 120

END_TO_END = {
    "setup_s": "s",
    "cmd_p50_ms": "ms",
    "decide_s": "s",
    "verify_s": "s",
    "pass_s": "s",
    "inproc_pass_s": "s",
    "peak_rss_mib": "MiB",
}


def fail(msg: str, code: int = 2):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(code)


# ---------------------------------------------------------------------------
# running one command
# ---------------------------------------------------------------------------


class Spawner:
    """Runs CLI commands through ``spawner.py``, so that their peak RSS is
    their own (see there)."""

    def __init__(self, workdir: str) -> None:
        self.out = os.path.join(workdir, "stdout.txt")
        self.err = os.path.join(workdir, "stderr.txt")
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "spawner.py")],
            cwd=ROOT, env=ENV, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def _ask(self, req: dict | None) -> dict:
        if req is None:
            self.proc.stdin.close()
        else:
            self.proc.stdin.write(json.dumps(req) + "\n")
            self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def spawn(self, argv):
        res = self._ask({"argv": argv, "out": self.out, "err": self.err,
                         "timeout": COMMAND_TIMEOUT_S})
        with open(self.out) as out, open(self.err) as err:
            return res["seconds"], res["code"], out.read(), err.read()

    def run(self, argv):
        """One CLI command, ``locc`` followed by ``argv``."""
        return self.spawn(CLI + argv)

    def time_setup(self) -> float:
        """Wall time of ``import locc.cli`` in a fresh interpreter."""
        seconds, code, _, err = self.spawn(SETUP)
        if code != 0:
            fail(f"import locc.cli failed:\n{err}", 3)
        return seconds

    def close(self) -> float:
        """Stop the helper; return the largest peak RSS of its commands (MiB)."""
        try:
            return self._ask(None)["maxrss_kib"] / 1024
        finally:
            self.proc.wait()


def make_inproc(main):
    def run_inproc(argv):
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        except Exception as exc:  # an uncaught error is a failed operation
            code = None
            err.write(f"{type(exc).__name__}: {exc}")
        return perf_counter() - t0, code, out.getvalue(), err.getvalue()

    return run_inproc


# ---------------------------------------------------------------------------
# passes and their checks
# ---------------------------------------------------------------------------


class Checker:
    """Checks each distinct output once against ``checks.py``."""

    def __init__(self, items, rng) -> None:
        import checks

        self.checks = checks
        self.rng = rng
        self.expect = [checks.expectation(item) for item in items]
        self.seen: dict[str, str | None] = {}
        self.errors: list[str] = []

    def record(self, op: str, i: int, item, code, stdout: str, stderr: str) -> dict | None:
        """Return the parsed record, or ``None`` when the operation failed."""
        if code is None or code not in (0, 1, 2) or "Traceback" in stderr:
            self.errors.append(f"{op} {item['name']}: exit {code}: {stderr.strip()[-300:]}")
            return None
        try:
            rec = json.loads(stdout)
        except ValueError:
            self.errors.append(f"{op} {item['name']}: output is not JSON")
            return None
        rec.pop("timing_ms", None)
        key = f"{op}:{i}:{code}:" + json.dumps(rec, sort_keys=True)
        if key not in self.seen:
            self.seen[key] = self._check(op, item, self.expect[i], code, rec)
        if self.seen[key] is not None:
            self.errors.append(f"WRONG {op} {item['name']}: {self.seen[key]}")
        return rec

    def _check(self, op, item, exp, code, rec) -> str | None:
        if op == "verify":
            return None if code == 0 and rec.get("verified") is True else "certificate not verified"
        want = self.checks.expected_exit(item, exp)
        if code != want:
            return f"exit {code}, expected {want}"
        return self.checks.check_output(item, exp, rec, self.rng)


def one_pass(run, items, checker: Checker, certdir: str) -> dict:
    """One pass over the corpus: every ``decide``, ``verify`` on each
    certificate those decides emitted, then every ``cc``.  Returns each
    command's wall time under ``(op, item index)``."""
    per_cmd = {}
    failed = 0

    def timed(op: str, i: int, argv) -> dict | None:
        nonlocal failed
        dt, code, out, err = run(argv)
        per_cmd[op, i] = dt
        rec = checker.record(op, i, items[i], code, out, err)
        failed += rec is None
        return rec

    certs = []
    for i, item in enumerate(items):
        if item["op"] == "decide":
            rec = timed("decide", i, ["decide", item["path"], "--json"])
            if rec is not None and rec.get("certificate") is not None:
                path = os.path.join(certdir, item["name"] + ".cert.json")
                with open(path, "w") as fh:
                    json.dump(rec["certificate"], fh)
                certs.append((i, path))
    for i, path in certs:
        timed("verify", i, ["verify", items[i]["path"], path, "--json"])
    for i, item in enumerate(items):
        if item["op"] == "cc":
            timed("cc", i, ["cc", item["path"], "--json"])
    return {"per_cmd": per_cmd, "attempted": len(per_cmd), "failed": failed}


def pass_time(p: dict) -> float:
    return sum(p["per_cmd"].values())


def fastest(passes) -> dict:
    """Each command's fastest time over ``passes``.  Contention on the host
    only ever adds time, so the fastest is the steadiest estimate."""
    best = {}
    for p in passes:
        for key, t in p["per_cmd"].items():
            best[key] = min(best.get(key, t), t)
    return best


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------


def time_setup() -> float:
    """Wall time of ``import locc.cli`` in a fresh interpreter, started
    before this process has loaded anything heavy."""
    t0 = perf_counter()
    p = subprocess.run(SETUP, cwd=ROOT, env=ENV,
                       capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S)
    dt = perf_counter() - t0
    if p.returncode != 0:
        fail(f"import locc.cli failed:\n{p.stderr}", 3)
    return dt


def measure(items, checker, workdir, seconds, setup_s):
    """Rounds of one fresh ``import locc.cli``, one subprocess pass, and
    in-process passes for a fifth of the time those two took, so all three
    sample the whole run.  ``setup_s`` is the first import sample, taken at
    the start of the run; the reported one is the fastest."""
    from locc.cli import main

    run_inproc = make_inproc(main)
    one_pass(run_inproc, items, checker, workdir)  # warm-up, and every output checked once
    spawner = Spawner(workdir)
    t_start = perf_counter()
    setups, sub, inproc, rounds = [setup_s], [], [], []
    try:
        # two rounds at least, so that every command has a fastest of two;
        # then a round only if one more of average length still fits
        while len(rounds) < 2 or perf_counter() - t_start + statistics.mean(rounds) <= seconds:
            t0 = perf_counter()
            setups.append(spawner.time_setup())
            sub.append(one_pass(spawner.run, items, checker, workdir))
            t1 = perf_counter()
            while True:
                inproc.append(one_pass(run_inproc, items, checker, workdir))
                if perf_counter() - t1 >= (t1 - t0) / 5:
                    break
            rounds.append(perf_counter() - t0)
    finally:
        peak_rss_mib = spawner.close()

    best = fastest(sub)

    def total(op=None):
        return sum(t for (kind, _), t in best.items() if op in (None, kind))

    metrics = {
        "setup_s": min(setups),
        "cmd_p50_ms": statistics.median(best.values()) * 1000,
        "decide_s": total("decide"),
        "verify_s": total("verify"),
        "pass_s": total(),
        "inproc_pass_s": sum(fastest(inproc).values()),
        "peak_rss_mib": peak_rss_mib,
    }
    return metrics, END_TO_END, sub + inproc


def import_times(runs: int = 3) -> dict[str, float]:
    from spans import parse_importtime

    samples = []
    for _ in range(runs):
        p = subprocess.run(CLI[:1] + ["-X", "importtime", "-c", "import locc.cli"], cwd=ROOT,
                           env=ENV, capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S)
        samples.append(parse_importtime(p.stderr))
    return {k: statistics.median(s.get(k, 0.0) for s in samples) for k in samples[0]}


def measure_traced(items, checker, workdir, seconds, out_path):
    import locc.cli
    from spans import EDGE_PROBES, Tracer, metric_specs

    imports = import_times()
    run_inproc = make_inproc(lambda argv: locc.cli.main(argv))  # the wrapper, once installed
    one_pass(run_inproc, items, checker, workdir)  # warm-up, and every output checked once
    t_start = perf_counter()
    timed, counted, rounds = [], [], []
    # rounds of an untraced pass and a traced one; every second traced pass
    # also counts ``Graph.has_edge``, whose counter would add to the sender
    # search's self time, so times come only from the passes without it
    while len(rounds) < 4 or perf_counter() - t_start + statistics.mean(rounds) <= seconds:
        t0 = perf_counter()
        plain = one_pass(run_inproc, items, checker, workdir)
        tracer = Tracer(count_edges=len(rounds) % 2 == 1)
        tracer.install()
        try:
            traced = one_pass(run_inproc, items, checker, workdir)
        finally:
            tracer.uninstall()
        (counted if tracer.count_edges else timed).append((plain, traced, tracer))
        rounds.append(perf_counter() - t0)
    with open(out_path, "w") as fh:  # the last traced pass of each kind
        json.dump({"fields": ["name", "start", "end", "parent", "command"],
                   "spans": timed[-1][2].spans, "counts": counted[-1][2].counts}, fh)

    per_pass = [t.metrics() for _, _, t in timed]
    metrics = {name: statistics.median(m[name] for m in per_pass) for name, _ in metric_specs()}
    metrics.update(imports)
    metrics[EDGE_PROBES] = statistics.median(t.counts[EDGE_PROBES] for _, _, t in counted)
    # each traced pass against the untraced one just before it, so that the
    # host's drift over the run cancels
    metrics["trace.overhead_ms"] = 1000 * statistics.median(
        pass_time(traced) - pass_time(plain) for plain, traced, _ in timed)
    return metrics, dict(metric_specs()), [p for r in timed + counted for p in r[:2]]


def main() -> None:
    import corpus

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "locc", "cli.py")):
        fail(f"no locc sources under {SRC}; run from the root of a locc checkout")

    setup_s = time_setup()  # first, so the import is as cold as this run allows
    sys.path.insert(0, SRC)
    import numpy as np

    import checks

    workdir = os.path.join(HERE, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        items = corpus.build(args.workload, args.seed, workdir).items
        checks.negative_tests()
        checker = Checker(items, np.random.default_rng(args.seed))
        if args.trace:
            os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
            out_path = os.path.join(HERE, "out", f"trace-{args.workload}-{args.seed}.json")
            metrics, units, passes = measure_traced(items, checker, workdir, args.seconds, out_path)
        else:
            metrics, units, passes = measure(items, checker, workdir, args.seconds, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))  # only when no other run uses it

    for line in checker.errors[:20]:
        print(line, file=sys.stderr)
    wrong = any(e.startswith("WRONG") for e in checker.errors)
    result = {
        "correct": not wrong,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
