"""One benchmark workload, run in a fresh process from the root of a checkout.

    PYTHONPATH=src python3 perfbench/workloads.py --workload W --seed N \
        --seconds S --trace 0|1 [--setup-only]

``perfbench/run.py`` starts this script; see ``perfbench/README.md`` for the
workloads and metrics.  The protocol on stdout: the line ``ready`` once the
op list is built (``--setup-only`` exits there), then a report line and a
result line, both JSON.

Every op builds its own algebra tables, because all memoisation in ardom
hangs off a table: a later pass over shared tables would time cache hits.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback

from ardom import cli
from ardom.algebra import nakayama_from_kupisch
from ardom.arseq import first_failure, has_n_tf_ar_sequences
from ardom.corpus import load_corpus
from ardom.homology import DEFAULT_CAP, domdim_algebra
from ardom.verify import SUITES, _cyclic_series, _entry_verdicts
import calibrate
from tracer import Tracer, layer_metrics, missing_keys

CORPUS = "corpus"
SAMPLING_SEED = 0  # the `ardom verify` default; see README.md for why it is fixed
NS = (1, 2, 3)
SAMPLE_SIZE = 64
JOBS = 2
NAKAYAMA_SCAN = ((4, 6), (5, 5))  # (simples m, max Kupisch length L)
LINEAR_AN = (8, 16, 24, 32)
LINEAR_AN_MAX_PATH_LENGTH = 64

# Passes per run at --seconds 20; the count scales with --seconds.  A fixed
# count, not a deadline, so both sides of a comparison do the same work.
# Raw passes take 11-18 s, 6.5-10 s, 3.8-6.5 s and 6.4-11.5 s on 2 CPUs.
PASSES_AT_20S = {
    "corpus-verify": 1,
    "corpus-verify-j2": 3,
    "nakayama-scan": 3,
    "linear-an": 3,
}


@dataclasses.dataclass
class Op:
    """One timed unit of work.

    ``run`` returns ``(output, error)``: output is the text compared across
    passes and hashed into the digest; error is None or why the op failed.
    ``check``, when set, is an untimed further check of the output.
    """

    key: str
    run: object
    check: object = None


def _load_entries():
    entries = load_corpus(CORPUS)
    for e in entries:
        with open(os.path.join(e.root, e.file), encoding="utf-8") as fh:
            if not fh.read().strip():
                raise ValueError(f"{e.entry_id}: empty presentation")
    return entries


def _entry_records(entry):
    """What `ardom verify --n 1..3` prints for one entry, on a fresh table."""
    fresh = dataclasses.replace(entry, _table=None)
    verdicts = _entry_verdicts(fresh, SUITES, NS, DEFAULT_CAP, SAMPLING_SEED, SAMPLE_SIZE)
    return "".join(v.to_json() + "\n" for v in verdicts)


def _corpus_verify(seed):
    def make(entry):
        def run():
            out = _entry_records(entry)
            bad = [r["check"] for r in map(json.loads, out.splitlines()) if r["status"] == "fail"]
            return out, f"fail verdicts: {bad}" if bad else None

        return Op(entry.entry_id, run)

    return [make(e) for e in _load_entries()]


def _corpus_verify_j2(seed):
    entries = _load_entries()
    ids = [e.entry_id for e in entries]
    # One entry, picked by the seed, is recomputed serially to check that
    # the pool prints its records byte for byte.
    spot = entries[seed % len(entries)]
    reference = []

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["verify", "--jobs", str(JOBS), "--n", "1..3", CORPUS])
        out = buf.getvalue()
        records = [json.loads(line) for line in out.splitlines()]
        if code not in (0, 3):
            return out, f"exit code {code}"
        if not records or any(r["status"] == "fail" for r in records):
            return out, f"statuses {[r['status'] for r in records]}"
        order = [ids.index(r["algebra"]) for r in records]
        if order != sorted(order):
            return out, "records not in manifest order"
        return out, None

    def check(out):
        if not reference:
            reference.append(_entry_records(spot))
        lines = [line for line in out.splitlines(keepends=True)
                 if json.loads(line)["algebra"] == spot.entry_id]
        if "".join(lines) != reference[0]:
            return f"records of {spot.entry_id} differ from a serial run"
        return None

    return [Op("verify-j2", run, check)]


def _nakayama_scan(seed):
    ops = []
    for m, max_len in NAKAYAMA_SCAN:
        for series in _cyclic_series(m, max_len):
            ops.append(_nakayama_op(m, series))
    return ops


def _nakayama_op(m, series):
    def run():
        tbl = nakayama_from_kupisch(list(series), cyclic=True)
        selfinj = "selfinjective" in tbl.flags
        dd = domdim_algebra(tbl)
        row = {"series": list(series), "selfinjective": selfinj, "domdim": str(dd)}
        errors = []
        if selfinj != (len(set(series)) == 1):
            errors.append("selfinjective flag is not 'series is constant'")
        if selfinj and not dd.is_infinite:
            errors.append("selfinjective with finite domdim")
        if not selfinj:
            if dd.ge(2 * m) is not False:
                errors.append(f"domdim {dd} not below the bound {2 * m}")
            tf, report = has_n_tf_ar_sequences(tbl, 2 * m)
            row["tf_ar_at_2m"] = tf
            row["first_failure"] = first_failure(report)
            if tf is not False:
                errors.append("2m-torsion-free AR sequences on a non-selfinjective algebra")
        return json.dumps(row, sort_keys=True), "; ".join(errors) or None

    return Op("-".join(map(str, series)), run)


def _linear_an(seed):
    return [_linear_op(n, kind) for n in LINEAR_AN for kind in ("domdim", "ar2")]


def _linear_op(n, kind):
    def run():
        tbl = nakayama_from_kupisch(
            list(range(n, 0, -1)), cyclic=False, max_path_length=LINEAR_AN_MAX_PATH_LENGTH
        )
        if kind == "domdim":
            dd = domdim_algebra(tbl)
            ok = dd.is_exact and dd.value == 1
            return f"A{n} domdim {dd}", None if ok else f"domdim {dd}, expected exact 1"
        tf, report = has_n_tf_ar_sequences(tbl, 2)
        out = f"A{n} tf_ar_at_2 {tf} first_failure {first_failure(report)}"
        return out, None if tf is False else f"has_n_tf_ar_sequences(A{n}, 2) is {tf}"

    return Op(f"A{n}-{kind}", run)


# Each builds its op list, in the order the output digest uses, from the seed.
WORKLOADS = {
    "corpus-verify": _corpus_verify,
    "corpus-verify-j2": _corpus_verify_j2,
    "nakayama-scan": _nakayama_scan,
    "linear-an": _linear_an,
}


def setup(workload, seed):
    """(ops in digest order, ops in run order); the seed permutes the order."""
    ops = WORKLOADS[workload](seed)
    order = list(ops)
    random.Random(seed).shuffle(order)
    return ops, order


def tail(samples):
    """(value, label) of the highest percentile with 10 samples beyond it.

    With nearest rank, rank r of n has n - r samples beyond it, so the rank is
    n - 10.  Below 11 samples no percentile qualifies and the maximum is given.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], f"max of {n} (fewer than 11 samples)"
    rank = n - 10
    return ordered[rank - 1], f"p{100 * rank / n:.1f} (rank {rank} of {n})"


def _peak_rss_mb(workload):
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload == "corpus-verify-j2":
        # ru_maxrss of the children is the largest single worker; the two
        # workers run at once, so count it for each.
        kib += JOBS * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024


class Runner:
    """Runs passes over the ops, checks them, and keeps the timings.

    Kernel samples (see calibrate.py) are taken before the first op and
    after every op; op ``k`` ended where ``refs[marks[k]]`` starts.
    """

    def __init__(self, order):
        self.order = order
        self.outputs: dict = {}
        self.errors: list = []
        self.failed = 0
        self.op_s: list = []  # raw wall time of every op run
        self.refs = calibrate.samples()
        self.marks: list = []

    def run_pass(self) -> range:
        """Run every op once; return the positions of its ops in ``op_s``."""
        gc.collect()
        first = len(self.op_s)
        for op in self.order:
            start = time.perf_counter()
            try:
                out, err = op.run()
            except Exception:  # one failing op must not hide the others
                out, err = None, traceback.format_exc(limit=3)
            self.op_s.append(time.perf_counter() - start)
            self.marks.append(len(self.refs))
            self.refs.extend(calibrate.samples())
            if err is None and self.outputs.setdefault(op.key, out) != out:
                err = "output differs from an earlier pass"
            if err is None and op.check is not None:
                err = op.check(out)
            if err is not None:
                self.failed += 1
                self.errors.append(f"{op.key}: {err}")
                print(f"op {op.key} failed: {err}", file=sys.stderr)
        return range(first, len(self.op_s))

    def scaled(self, span) -> list:
        return [self.op_s[k] * calibrate.scale(self.refs, self.marks[k]) for k in span]

    def raw(self, span) -> float:
        return sum(self.op_s[k] for k in span)


def measure(workload, seed, seconds, trace):
    ops, order = setup(workload, seed)
    print("ready", flush=True)
    runner = Runner(order)
    if trace:
        untraced = runner.run_pass()
        tracer = Tracer()
        with tracer:
            traced = runner.run_pass()
        spans = [untraced, traced]
        pass_s = [sum(runner.scaled(s)) for s in spans]
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in layer_metrics(tracer).items()
        }
        metrics["trace.overhead_s"] = {"value": pass_s[1] - pass_s[0], "unit": "s"}
        extra = {"missing_trace_keys": missing_keys(tracer)}
    else:
        passes = max(1, round(PASSES_AT_20S[workload] * seconds / 20))
        spans = [runner.run_pass() for _ in range(passes)]
        pass_s = [sum(runner.scaled(s)) for s in spans]
        op_s = [t for span in spans for t in runner.scaled(span)]
        tail_s, tail_label = tail(op_s)
        attempted = len(spans) * len(ops)
        metrics = {
            "pass_s": {"value": statistics.median(pass_s), "unit": "s"},
            "op_p50_s": {"value": statistics.median(op_s), "unit": "s"},
            "op_tail_s": {"value": tail_s, "unit": "s"},
            "peak_rss_mb": {"value": _peak_rss_mb(workload), "unit": "MB"},
            "ok_ratio": {"value": (attempted - runner.failed) / attempted, "unit": "ratio"},
        }
        extra = {"op_samples": len(op_s), "op_tail": tail_label}
    # For corpus-verify the text is what `ardom verify --n 1..3` prints.
    text = "".join(runner.outputs.get(op.key, "") for op in ops)
    report = {
        "workload": workload,
        "seed": seed,
        "passes": len(spans),
        "ops_per_pass": len(ops),
        "pass_s_samples": pass_s,
        "raw_pass_s_samples": [runner.raw(s) for s in spans],
        "kernel_ms_median": 1000 * statistics.median(runner.refs),
        "output_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "errors": runner.errors[:5],
        **extra,
    }
    print(json.dumps(report, sort_keys=True))
    result = {
        "correct": runner.failed == 0,
        "attempted": len(spans) * len(ops),
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if args.setup_only:
        setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    measure(args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
