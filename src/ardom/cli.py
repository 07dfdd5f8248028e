"""The ``ardom`` command line tool.

Subcommands either query a single invariant of one algebra (``info``,
``domdim``, ``grade``, ``torsion``, ``gldim``, ``ar-check``) or drive the
corpus-level machinery (``verify``, ``scan``).  Output is one JSON record
per line by default; ``--format text`` switches to a readable rendering.

Each subcommand takes only the shared options it reads:

    --format                 every subcommand
    --max-path-length L      info, domdim, grade, torsion, gldim, ar-check
    --cap N (or $ARDOM_CAP)  domdim, grade, gldim, verify, scan
    --seed, --sample-size    domdim, grade, torsion, gldim, verify
    --jobs J                 verify

Exit codes follow the suite runner: 0 all good, 1 a check failed, 2 bad
input (an ``InputError``: a refused file, flag or argument, printed as one
``error:`` line), 3 a capped computation could not decide, 4 an internal
error: a failed internal check or any other exception, which is a bug.  For
plain invariant queries "could not decide" means the reported value is only
a lower bound.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .algebra import DEFAULT_MAX_PATH_LENGTH, InputError, ascii_int, read_input, table_from_file
from .arseq import ar_report, failure_witness
from .corpus import load_corpus
from .homology import (
    DEFAULT_CAP,
    CappedNat,
    domdim_algebra,
    domdim_module,
    ext_module,
    gldim,
    grade,
    pdim,
    torsion,
)
from .modules import (
    parse_module,
    sample_modules,
    serialize_module,
    simple,
)
from .verify import (
    EXIT_FAIL,
    EXIT_INCONCLUSIVE,
    EXIT_INPUT_ERROR,
    EXIT_INTERNAL,
    EXIT_PASS,
    SUITES,
    exit_code,
    run_suite,
    scan_nakayama_question,
)

__all__ = ["main"]


def _parse_n_range(text: str):
    """--n accepts a single value ("2") or an inclusive range ("1..3")."""
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            lo, hi = ascii_int(lo), ascii_int(hi)
            if lo < 1 or hi < lo:
                raise ValueError
            return tuple(range(lo, hi + 1))
        n = ascii_int(text)
        if n < 1:
            raise ValueError
        return (n,)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive value or A..B range, got {text!r}"
        ) from None


def _int_at_least(low: int, what: str):
    """An argparse type: an integer >= low, described as ``what``."""

    def parse(text: str) -> int:
        try:
            n = ascii_int(text)
        except ValueError:
            n = low - 1
        if n < low:
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return n

    return parse


_positive_int = _int_at_least(1, "a positive integer")
_nonnegative_int = _int_at_least(0, "a non-negative integer")


class _Parser(argparse.ArgumentParser):
    """Refuses a bad command line with an InputError, which :func:`main`
    prints as its one ``error:`` line, in place of a usage block and an exit."""

    def error(self, message):
        raise InputError(message)


def _build_parser() -> argparse.ArgumentParser:
    fmt = _Parser(add_help=False)
    fmt.add_argument(
        "--format", choices=("text", "json"), default="json", help="output format"
    )
    alg = _Parser(add_help=False)
    alg.add_argument("algebra", help="presentation file")
    alg.add_argument(
        "--max-path-length",
        type=_positive_int,
        default=DEFAULT_MAX_PATH_LENGTH,
        metavar="L",
        help="rewriting completion cap when reading the presentation",
    )
    capped = _Parser(add_help=False)
    capped.add_argument(
        "--cap",
        type=_nonnegative_int,
        default=None,
        metavar="N",
        help="search cap for unbounded invariants "
        f"(default: $ARDOM_CAP or {DEFAULT_CAP})",
    )
    sampled = _Parser(add_help=False)
    sampled.add_argument("--seed", type=_nonnegative_int, default=0, help="sampling seed")
    sampled.add_argument(
        "--sample-size", type=_positive_int, default=64, metavar="K", help="modules per sample"
    )

    parser = _Parser(
        prog="ardom",
        description="Exact homological invariants of bound quiver algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", parents=[fmt, alg], help="describe an algebra file")
    p.set_defaults(func=_cmd_info)

    for name, blurb in (
        ("domdim", "dominant dimension (of the algebra, or of --module)"),
        ("grade", "grades of torsion submodules (or of --module)"),
        ("torsion", "torsion submodules of the simples (or of --module)"),
        ("gldim", "global dimension (with --module: its projective dimension)"),
    ):
        parents = [fmt, alg, sampled] if name == "torsion" else [fmt, alg, capped, sampled]
        p = sub.add_parser(name, parents=parents, help=blurb)
        target = p.add_mutually_exclusive_group()
        target.add_argument(
            "--module", metavar="FILE", help="module file over the algebra"
        )
        target.add_argument(
            "--sample-index",
            type=_nonnegative_int,
            metavar="I",
            help="regenerate module I of the deterministic sample "
            "(honors --seed and --sample-size) and compute on it",
        )
        if name == "grade":
            p.add_argument(
                "--ext-degree",
                type=_positive_int,
                default=None,
                metavar="D",
                help="grade the degree-D Ext module of the target "
                "against the algebra instead of the target itself",
            )
        p.set_defaults(func=_cmd_torsion if name == "torsion" else _cmd_invariant, invariant=name)

    p = sub.add_parser(
        "ar-check",
        parents=[fmt, alg],
        help="test whether all almost split sequences from projectives are n-torsion-free",
    )
    p.add_argument("--n", type=_positive_int, required=True, help="torsion-free degree")
    p.set_defaults(func=_cmd_ar_check)

    p = sub.add_parser(
        "verify", parents=[fmt, capped, sampled], help="run check suites over a corpus"
    )
    p.add_argument("corpus", help="corpus directory with manifest.json")
    p.add_argument(
        "--suite",
        action="append",
        choices=SUITES,
        help="suite to run (repeatable; default: all)",
    )
    p.add_argument(
        "--n",
        type=_parse_n_range,
        default=(1,),
        metavar="A..B",
        help="torsion-free degrees for the main/gendo suites",
    )
    p.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        metavar="J",
        help="parallel corpus workers (at most one per entry)",
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "scan", parents=[fmt, capped], help="enumerate an algebra family hunting counterexamples"
    )
    p.add_argument("family", choices=("nakayama",))
    p.add_argument("--simples", type=_positive_int, required=True, metavar="M")
    p.add_argument(
        "--max-len", type=_int_at_least(2, "a length of at least 2"), required=True, metavar="L"
    )
    p.add_argument(
        "--question",
        action="store_true",
        help="also test the 2m-torsion-free AR property on every entry",
    )
    p.set_defaults(func=_cmd_scan)

    return parser


def _resolve_cap(args) -> int:
    """--cap, else $ARDOM_CAP read by the same rule, else the default."""
    if args.cap is not None:
        return args.cap
    env = os.environ.get("ARDOM_CAP", "")
    try:
        return _nonnegative_int(env) if env else DEFAULT_CAP
    except argparse.ArgumentTypeError as exc:
        raise InputError(f"ARDOM_CAP: {exc}") from None


def _emit(args, records, to_text):
    for r in records:
        if args.format == "json":
            print(json.dumps(r, sort_keys=True))
        else:
            print(to_text(r))


def _load(args):
    return table_from_file(args.algebra, max_path_length=args.max_path_length)


def _load_module(tbl, path):
    label = os.path.splitext(os.path.basename(path))[0]
    return read_input(path, parse_module, tbl, label)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_info(args):
    tbl = _load(args)
    q = tbl.quiver
    record = {
        "kind": "info",
        "algebra": tbl.label,
        "field": tbl.field.p,
        "dimension": tbl.dimension,
        "vertices": list(q.vertices),
        "arrows": [
            {"name": name, "source": s, "target": t} for name, s, t in q.arrows
        ],
        "flags": sorted(tbl.flags),
    }

    def text(r):
        lines = [
            f"algebra    {r['algebra']}",
            f"field      GF({r['field']})",
            f"dimension  {r['dimension']}",
            f"vertices   {' '.join(r['vertices'])}",
        ]
        for a in r["arrows"]:
            lines.append(f"arrow      {a['name']}: {a['source']} -> {a['target']}")
        if r["flags"]:
            lines.append(f"flags      {' '.join(r['flags'])}")
        return "\n".join(lines)

    _emit(args, [record], text)
    return EXIT_PASS


def _target(args, tbl):
    """The module named by --module or --sample-index, or None for the algebra."""
    if args.module:
        return _load_module(tbl, args.module)
    if args.sample_index is None:
        return None
    sample = sample_modules(tbl, seed=args.seed, size=args.sample_size)
    if args.sample_index >= len(sample):
        raise InputError(
            f"--sample-index {args.sample_index} out of range "
            f"(sample has {len(sample)} modules)"
        )
    return sample[args.sample_index]


def _cmd_torsion(args):
    tbl = _load(args)
    mod = _target(args, tbl)
    targets = (
        [(mod.label, mod)]
        if mod is not None
        else [(f"S({v})", simple(tbl, i)) for i, v in enumerate(tbl.quiver.vertices)]
    )
    records = []
    for label, m in targets:
        t = torsion(m)
        records.append(
            {
                "kind": "torsion",
                "algebra": tbl.label,
                "module": label,
                "module_dims": list(m.dims),
                "torsion_dims": list(t.dims),
                "is_zero": t.is_zero,
                "module_text": serialize_module(t),
            }
        )

    def text(r):
        tail = "zero" if r["is_zero"] else f"dims {r['torsion_dims']}"
        return f"t({r['module']}) over {r['algebra']}: {tail}"

    _emit(args, records, text)
    return EXIT_PASS


def _cmd_invariant(args):
    tbl = _load(args)
    mod = _target(args, tbl)
    name, cap = args.invariant, args.cap
    deg = getattr(args, "ext_degree", None)
    if deg is not None and mod is None:
        raise InputError("--ext-degree needs --module or --sample-index")

    def record(shown, module, value):
        return {
            "kind": "invariant",
            "invariant": shown,
            "algebra": tbl.label,
            "module": module,
            "cap": cap,
            "result": value.to_json(),
        }

    if name == "grade" and mod is None:  # the per-simple torsion grades
        grades = [grade(torsion(simple(tbl, i)), cap=cap) for i in range(len(tbl.quiver.vertices))]
        records = [record("grade", f"t(S({v}))", g) for v, g in zip(tbl.quiver.vertices, grades)]
        records.append(record("min-grade", None, CappedNat.least(grades)))
    elif name == "grade" and deg is not None:
        records = [record(f"grade-ext{deg}", mod.label, grade(ext_module(mod, deg), cap=cap))]
    elif name == "grade":
        records = [record("grade", mod.label, grade(mod, cap=cap))]
        records[0]["torsion_grade"] = grade(torsion(mod), cap=cap).to_json()
    elif mod is None:
        value = domdim_algebra(tbl, cap=cap) if name == "domdim" else gldim(tbl, cap=cap)
        records = [record(name, None, value)]
    elif name == "domdim":
        records = [record("domdim", mod.label, domdim_module(mod, cap=cap))]
    else:  # gldim over a module file means its projective dimension
        if mod.is_zero:
            raise InputError("projective dimension of the zero module is undefined")
        records = [record("pdim", mod.label, pdim(mod, cap=cap))]

    def text(r):
        return f"{r['invariant']}({r['module'] or r['algebra']}) = {CappedNat(**r['result'])}"

    _emit(args, records, text)
    undecided = any(r["result"]["kind"] == "at_least" for r in records)
    return EXIT_INCONCLUSIVE if undecided else EXIT_PASS


def _cmd_ar_check(args):
    tbl = _load(args)
    holds, report = ar_report(tbl, args.n)
    record = {
        "kind": "ar-check",
        "algebra": tbl.label,
        "n": args.n,
        "holds": holds,
        "report": report,
    }
    witness = failure_witness(report)
    if witness is not None:
        record["first_failure"] = witness

    def text(r):
        verdict = "hold" if r["holds"] else "FAIL"
        lines = [f"{r['n']}-torsion-free AR sequences over {r['algebra']}: {verdict}"]
        for row in r["report"]:
            if "note" in row:
                lines.append(f"  {row['note']}")
            elif "skipped" in row:
                lines.append(f"  {row['vertex']}: skipped ({row['skipped']})")
            else:
                terms = ", ".join(
                    f"{k}={'ok' if d is None else f'fails at {d}'}"
                    for k, d in row["terms"].items()
                )
                lines.append(f"  {row['vertex']}: {terms}")
        return "\n".join(lines)

    _emit(args, [record], text)
    return EXIT_PASS if holds else EXIT_FAIL


def _cmd_verify(args):
    entries = load_corpus(args.corpus)
    suites = tuple(args.suite) if args.suite else SUITES
    verdicts, code = run_suite(
        entries,
        suites=suites,
        ns=args.n,
        cap=args.cap,
        seed=args.seed,
        sample_size=args.sample_size,
        jobs=args.jobs,
    )
    for v in verdicts:
        print(v.to_json() if args.format == "json" else v.to_text())
    return code


def _cmd_scan(args):
    verdict, rows = scan_nakayama_question(
        args.simples, args.max_len, cap=args.cap, question=args.question
    )
    if args.format == "json":
        for row in rows:
            print(json.dumps({"kind": "scan-row", **row}, sort_keys=True))
        print(verdict.to_json())
    else:
        for row in rows:
            bits = [f"series={row['series']}", f"selfinjective={row['selfinjective']}"]
            bits.append(f"domdim={row['domdim']}")
            if "tf_ar_at_2m" in row:
                bits.append(f"tf_ar_at_2m={row['tf_ar_at_2m']}")
            if "violates" in row:
                bits.append(f"VIOLATES: {row['violates']}")
            print("  ".join(bits))
        print(verdict.to_text())
    return exit_code([verdict.status])


def _warning_line(message, category, filename, lineno, file=None, line=None):
    """``warnings.showwarning`` for the cli: one ``warning:`` line, which
    names the input (:func:`~ardom.algebra.read_input` prefixes its source)
    rather than the package line that warned."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    import warnings

    with warnings.catch_warnings():
        warnings.showwarning = _warning_line
        try:
            args = _build_parser().parse_args(argv)
            if "cap" in args:  # only the subcommands with --cap read ARDOM_CAP
                args.cap = _resolve_cap(args)
            code = args.func(args)
            sys.stdout.flush()
            return code
        except BrokenPipeError:
            # the reader went away (e.g. | head); not our error
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return EXIT_PASS
        except InputError as exc:  # bad input: a refused file, flag or argument
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT_ERROR
        except Exception as exc:  # failed internal checks and every other fault
            message = " ".join(str(exc).split()) or type(exc).__name__
            print(f"internal error: {message}", file=sys.stderr)
            return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
