"""End-to-end tests of the ardom command line interface."""

import argparse
import glob
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

from ardom.algebra import InputError, input_lines
from ardom.cli import _build_parser, main
from ardom.corpus import load_corpus
from ardom.homology import domdim_module
from ardom.modules import parse_module

CORPUS = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")
SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))


def alg(name):
    return os.path.join(CORPUS, name + ".alg")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out.splitlines()


def records(lines):
    return [json.loads(line) for line in lines]


def test_info_json(capsys):
    code, lines = run(capsys, "info", alg("ka2"))
    assert code == 0
    (rec,) = records(lines)
    assert rec["algebra"] == "ka2"
    assert rec["field"] == 101
    assert rec["dimension"] == 3
    assert rec["vertices"] == ["v1", "v2"]
    assert rec["arrows"] == [{"name": "a", "source": "v1", "target": "v2"}]


def test_info_text(capsys):
    code, lines = run(capsys, "info", alg("nak-22"), "--format", "text")
    assert code == 0
    joined = "\n".join(lines)
    assert "GF(101)" in joined
    assert "selfinjective" in joined


def test_domdim_exact(capsys):
    code, lines = run(capsys, "domdim", alg("nak-344"))
    assert code == 0
    (rec,) = records(lines)
    assert rec["invariant"] == "domdim"
    assert rec["result"] == {"kind": "exact", "value": 4}
    assert rec["cap"] == 30


def test_gldim_capped_is_inconclusive_exit(capsys):
    code, lines = run(capsys, "gldim", alg("nak-233"))
    assert code == 3
    (rec,) = records(lines)
    assert rec["result"] == {"kind": "at_least", "value": 31}


@pytest.mark.parametrize(
    "command, name, code, line",
    [
        ("gldim", "ka2", 0, "gldim(ka2) = 1"),
        ("gldim", "nak-233", 3, "gldim(nak-233) = >=31"),
        ("domdim", "nak-22", 0, "domdim(nak-22) = inf (finite coresolution with all terms projective)"),
    ],
)
def test_invariant_text_line(command, name, code, line, capsys):
    # exact, at least and certified infinite, as CappedNat prints them
    assert run(capsys, command, alg(name), "--format", "text") == (code, [line])


def test_domdim_of_module_file_matches_library(capsys):
    mod_file = os.path.join(CORPUS, "modules", "kronecker", "preproj-23.mod")
    code, lines = run(capsys, "domdim", alg("kronecker"), "--module", mod_file)
    assert code in (0, 3)
    (rec,) = records(lines)
    from ardom.algebra import table_from_file

    tbl = table_from_file(alg("kronecker"))
    with open(mod_file) as fh:
        m = parse_module(fh.read(), tbl)
    assert rec["result"] == domdim_module(m).to_json()
    assert rec["module"] == "preproj-23"


def test_grade_per_simple_summary(capsys):
    code, lines = run(capsys, "grade", alg("kronecker"))
    assert code == 0
    recs = records(lines)
    assert len(recs) == 3
    assert recs[-1]["invariant"] == "min-grade"
    assert recs[-1]["result"] == {"kind": "exact", "value": 1}
    assert recs[0]["module"] == "t(S(v1))"


def test_grade_of_module_file(capsys):
    mod_file = os.path.join(CORPUS, "modules", "kronecker", "reg-1.mod")
    code, lines = run(capsys, "grade", alg("kronecker"), "--module", mod_file)
    (rec,) = records(lines)
    assert rec["invariant"] == "grade"
    assert "torsion_grade" in rec
    assert code in (0, 3)


def test_torsion_pdim_witness_roundtrip(capsys, tmp_path):
    # Extract a nonzero torsion module over an Auslander algebra in the
    # module file format, then verify its projective dimension through the
    # same CLI -- the loop a failing witness report would be checked with.
    code, lines = run(capsys, "torsion", alg("auslander-x2"))
    assert code == 0
    recs = records(lines)
    nonzero = [r for r in recs if not r["is_zero"]]
    assert nonzero, "expected a simple with nonzero torsion"
    mod_file = tmp_path / "witness.mod"
    mod_file.write_text(nonzero[0]["module_text"])
    code, lines = run(capsys, "gldim", alg("auslander-x2"), "--module", str(mod_file))
    assert code == 0
    (rec,) = records(lines)
    assert rec["invariant"] == "pdim"
    assert rec["result"] == {"kind": "exact", "value": 2}


def test_torsion_of_module_file(capsys):
    mod_file = os.path.join(CORPUS, "modules", "kronecker", "proj-1.mod")
    code, lines = run(capsys, "torsion", alg("kronecker"), "--module", mod_file)
    assert code == 0
    (rec,) = records(lines)
    assert rec["is_zero"] is True
    assert rec["torsion_dims"] == [0, 0]


def test_ar_check_positive(capsys):
    code, lines = run(capsys, "ar-check", alg("nak-344"), "--n", "2")
    assert code == 0
    (rec,) = records(lines)
    assert rec["holds"] is True
    assert "first_failure" not in rec


def test_ar_check_negative(capsys):
    code, lines = run(capsys, "ar-check", alg("nak-344"), "--n", "3")
    assert code == 1
    (rec,) = records(lines)
    assert rec["holds"] is False
    assert rec["first_failure"]["degree"] == 3


def test_ar_check_stops_reading_degrees_once_the_syzygies_repeat(capsys):
    # every degree past a zero or repeated syzygy repeats one read as zero,
    # so a huge --n costs what --n 3 does and prints the same report
    code, lines = run(capsys, "ar-check", alg("ka2"), "--n", "3")
    start = time.perf_counter()
    huge_code, huge_lines = run(capsys, "ar-check", alg("ka2"), "--n", "1000000000")
    assert time.perf_counter() - start < 1.0
    (rec,), (huge,) = records(lines), records(huge_lines)
    assert code == huge_code == 1
    assert huge["n"] == 1000000000
    assert {**huge, "n": 3} == rec


def test_ar_check_text(capsys):
    code, lines = run(capsys, "ar-check", alg("ka2"), "--n", "1", "--format", "text")
    assert code == 1
    assert "FAIL" in lines[0]
    assert any("skipped" in line for line in lines)


def test_verify_main_suite(capsys):
    code, lines = run(capsys, "verify", "--suite", "main", "--n", "1..3", CORPUS)
    assert code == 0
    recs = records(lines)
    assert len(recs) == 42  # 14 entries x 3 degrees
    assert all(r["status"] == "pass" for r in recs)
    assert all(r["check"] == "main-theorem" for r in recs)


def test_verify_gorenstein_suite_inconclusive_exit(capsys):
    code, lines = run(capsys, "verify", "--suite", "gorenstein", CORPUS)
    assert code == 3
    recs = records(lines)
    assert [r["algebra"] for r in recs if r["status"] != "pass"] == ["nak-233"]


def test_verify_repeated_suites_and_text(capsys):
    code, lines = run(
        capsys,
        "verify",
        "--suite",
        "gendo",
        "--suite",
        "cor47",
        "--format",
        "text",
        "--sample-size",
        "16",
        CORPUS,
    )
    # auslander-x3 does not knit within 16 modules, so its cor47 record
    # rests on a sample and stays undecided
    assert code == 3
    undecided = [line for line in lines if not line.startswith("PASS")]
    assert len(undecided) == 1
    assert undecided[0].startswith("????  torsion-pdim     auslander-x3 ")


def test_scan_cli(capsys):
    code, lines = run(
        capsys, "scan", "nakayama", "--simples", "2", "--max-len", "4", "--question"
    )
    assert code == 0
    recs = records(lines)
    verdict = recs[-1]
    assert verdict["check"] == "nakayama-scan"
    assert verdict["status"] == "pass"
    assert verdict["detail"]["scanned"] == 5
    assert sum(1 for r in recs if r.get("kind") == "scan-row") == 5


def test_sample_index_regenerates_witness_module(capsys):
    # recompute an invariant on module 3 of the deterministic sample, the
    # loop a sampled-witness report is re-checked with
    code, lines = run(capsys, "torsion", alg("auslander-x2"), "--sample-index", "3")
    assert code == 0
    (rec,) = records(lines)
    from ardom.algebra import table_from_file
    from ardom.modules import sample_modules

    tbl = table_from_file(alg("auslander-x2"))
    m = sample_modules(tbl, seed=0, size=64)[3]
    assert rec["module_dims"] == list(m.dims)

    code, lines = run(
        capsys, "grade", alg("nak-344"), "--sample-index", "0", "--ext-degree", "2"
    )
    assert code == 0
    (rec,) = records(lines)
    assert rec["invariant"] == "grade-ext2"


def test_sample_index_errors(capsys):
    assert main(["grade", alg("ka2"), "--sample-index", "999"]) == 2
    assert main(["grade", alg("ka2"), "--ext-degree", "1"]) == 2
    assert main(["grade", alg("ka2"), "--sample-index", "0", "--ext-degree", "0"]) == 2
    capsys.readouterr()
    argv = ["grade", alg("ka2"), "--module", "x", "--sample-index", "1"]  # argparse rejects it
    assert_one_error_line(capsys, argv, "argument --sample-index: not allowed with argument --module")


def test_module_entry_beyond_int64_is_reduced_mod_p(capsys, tmp_path):
    # 10^23 = 91 mod 101; both files share a name, so labels agree
    outputs = []
    for entry in (10**23, 10**23 % 101):
        folder = tmp_path / str(entry)
        folder.mkdir()
        (folder / "m.mod").write_text(f"dims 1 1\narrow a {entry}\n")
        for command in ("domdim", "torsion"):
            code, lines = run(capsys, command, alg("ka2"), "--module", str(folder / "m.mod"))
            assert code == 0
            outputs.append(lines)
    assert outputs[:2] == outputs[2:]


def test_missing_algebra_file_is_input_error(capsys):
    code = main(["domdim", "/no/such/file.alg"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err


def test_corpus_without_manifest_is_input_error(capsys, tmp_path):
    code = main(["verify", "--suite", "main", str(tmp_path)])
    assert code == 2


def test_manifest_entry_that_is_not_an_object_is_input_error(capsys, tmp_path):
    (tmp_path / "manifest.json").write_text('{"entries": [1]}')
    code = main(["verify", str(tmp_path)])
    assert code == 2
    assert "must be an object" in capsys.readouterr().err


def test_manifest_classification_that_is_a_string_is_input_error(capsys, tmp_path):
    # read as a tuple of characters, this entry used to run no cor47 check
    # and exit 0 with no output
    shutil.copy(alg("auslander-x3"), tmp_path)
    manifest = {"entries": [{"id": "ax3", "file": "auslander-x3.alg", "classification": "auslander"}]}
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    code = main(["verify", "--suite", "cor47", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "ax3: classification must be a list of non-empty strings" in captured.err


def ka2_corpus(tmp_path):
    """A corpus of the one entry ka2, with its module list."""
    root = tmp_path / "corpus"
    root.mkdir()
    shutil.copy(alg("ka2"), root)
    shutil.copytree(os.path.join(CORPUS, "modules", "ka2"), root / "modules" / "ka2")
    with open(os.path.join(CORPUS, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    manifest["entries"] = [e for e in manifest["entries"] if e["id"] == "ka2"]
    (root / "manifest.json").write_text(json.dumps(manifest))
    return root


def selfinjective_corpus(root, flagged):
    """A corpus of nak-22 and nak-33, with their ``flags selfinjective``
    line or without it."""
    root.mkdir()
    for name in ("nak-22", "nak-33"):
        with open(alg(name), encoding="utf-8") as fh:
            lines = fh.read().splitlines(keepends=True)
        (root / f"{name}.alg").write_text("".join(
            line for line in lines if flagged or not line.startswith("flags")
        ))
    with open(os.path.join(CORPUS, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    manifest["entries"] = [e for e in manifest["entries"] if e["id"] in ("nak-22", "nak-33")]
    (root / "manifest.json").write_text(json.dumps(manifest))
    return root


def test_a_selfinjective_flag_changes_no_output(capsys, tmp_path):
    # the flag is a claim build_table checks: one algebra, one output
    flagged = selfinjective_corpus(tmp_path / "flagged", True)
    bare = selfinjective_corpus(tmp_path / "bare", False)
    assert "flags" in (flagged / "nak-22.alg").read_text()
    assert "flags" not in (bare / "nak-22.alg").read_text()
    outputs = [run(capsys, "verify", "--n", "1..3", str(root)) for root in (flagged, bare)]
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0 and len(outputs[0][1]) == 10
    for name in ("nak-22", "nak-33"):
        lines = [
            run(capsys, "domdim", str(root / f"{name}.alg"), "--format", "text")
            for root in (flagged, bare)
        ]
        assert lines[0] == lines[1] == (
            0, [f"domdim({name}) = inf (finite coresolution with all terms projective)"]
        )


def test_verify_output_is_the_same_under_python_O(tmp_path):
    root = ka2_corpus(tmp_path)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    runs = [
        subprocess.run(
            [sys.executable, *flags, "-m", "ardom.cli", "verify", "--n", "1..3", str(root)],
            capture_output=True,
            text=True,
            env=env,
        )
        for flags in ([], ["-O"])
    ]
    assert runs[0].returncode == runs[1].returncode == 0, runs[0].stderr
    assert runs[0].stdout == runs[1].stdout
    assert len(records(runs[0].stdout.splitlines())) > 1


def test_bad_degree_is_input_error(capsys):
    argv = ["ar-check", alg("ka2"), "--n", "0"]
    assert_one_error_line(capsys, argv, "argument --n: expected a positive integer, got '0'")
    argv = ["verify", "--suite", "main", "--n", "3..1", CORPUS]
    message = "argument --n: expected a positive value or A..B range, got '3..1'"
    assert_one_error_line(capsys, argv, message)


def test_internal_check_failure_exits_4(capsys, monkeypatch):
    import ardom.homology
    import ardom.modules
    from ardom.verify import EXIT_INTERNAL

    def no_cocycles(fmor):  # a kernel that lost its rows
        return ardom.modules.submodule_from_rows(fmor.source, [[] for _ in fmor.source.dims])

    monkeypatch.setattr(ardom.homology, "kernel", no_cocycles)
    code = main(["grade", alg("ka2"), "--sample-index", "0", "--ext-degree", "1"])
    captured = capsys.readouterr()
    assert code == EXIT_INTERNAL == 4
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line == "internal error: a coboundary leaves the cocycles"


LOOP = "vertices v\narrow x v v\n"
BAD_INTEGERS = {
    "superscript-field": "field \u00b2\n" + LOOP,
    "superscript-coefficient": "field 101\n" + LOOP + "relation \u00b2*x*x\n",
    "long-field": "field " + "7" * 5000 + "\n" + LOOP,
    "long-coefficient": "field 101\n" + LOOP + "relation " + "1" * 5000 + "*x*x\n",
    # str.isdecimal and int() read these as 101, 2 and 101, each of which
    # makes a finite-dimensional algebra
    "arabic-indic-field": "field \u0661\u0660\u0661\nvertices v\n",
    "arabic-indic-coefficient": "field 101\n" + LOOP + "relation \u0662*x*x\n",
    "fullwidth-field": "field \uff11\uff10\uff11\nvertices v\n",
}


@pytest.mark.parametrize("name", sorted(BAD_INTEGERS))
def test_bad_integer_in_an_algebra_file_is_input_error(name, capsys, tmp_path):
    # str.isdigit accepts "²" and int() rejects it, as it does past 4,300 digits
    path = tmp_path / "bad.alg"
    path.write_text(BAD_INTEGERS[name], encoding="utf-8")
    code = main(["info", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


# int() reads each of these as a number; a module file spells an integer
# with an optional sign and the ASCII digits 0-9 only
BAD_MODULE_INTEGERS = {
    "arabic-indic-dims": "dims \u0661 0\n",
    "underscore-dims": "dims 1_0 0\n",
    "arabic-indic-entry": "dims 1 1\narrow a \u0663\n",
    "underscore-entry": "dims 1 1\narrow a 1_0\n",
}


@pytest.mark.parametrize("name", sorted(BAD_MODULE_INTEGERS))
def test_bad_integer_in_a_module_file_is_input_error(name, capsys, tmp_path):
    path = tmp_path / "bad.mod"
    path.write_text(BAD_MODULE_INTEGERS[name], encoding="utf-8")
    code = main(["domdim", alg("ka2"), "--module", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: ")
    assert " must be integers (line " in captured.err


@pytest.mark.parametrize("cap", ["\u0663", "1_0", "\uff13"])
def test_env_cap_in_other_digits_is_input_error(cap, capsys, monkeypatch):
    monkeypatch.setenv("ARDOM_CAP", cap)
    code = main(["gldim", alg("ka2")])
    assert code == 2
    message = f"ARDOM_CAP: expected a non-negative integer, got {cap!r}"
    assert capsys.readouterr().err == f"error: {message}\n"


def test_signed_ascii_integers_keep_their_value(capsys, monkeypatch, tmp_path):
    # the sign stays part of the rule: +2 reads as 2 in a flag, $ARDOM_CAP
    # and a module file, and -1 reaches the range checks
    code, lines = run(capsys, "gldim", alg("nak-233"), "--cap", "+2")
    assert code == 3 and records(lines)[0]["cap"] == 2
    monkeypatch.setenv("ARDOM_CAP", "+2")
    code, lines = run(capsys, "gldim", alg("nak-233"))
    assert code == 3 and records(lines)[0]["cap"] == 2
    (tmp_path / "m.mod").write_text("dims +1 -0\narrow a\n")
    code, lines = run(capsys, "domdim", alg("ka2"), "--module", str(tmp_path / "m.mod"))
    assert code == 0 and records(lines)[0]["result"] == {"kind": "exact", "value": 0}
    (tmp_path / "m.mod").write_text("dims 1 1\narrow a -100\n")  # -100 = 1 mod 101
    code, lines = run(capsys, "domdim", alg("ka2"), "--module", str(tmp_path / "m.mod"))
    assert code == 0
    assert main(["domdim", alg("ka2"), "--cap", "-1"]) == 2
    message = "argument --cap: expected a non-negative integer, got '-1'"
    assert capsys.readouterr().err == f"error: {message}\n"


# str.split() and str.splitlines() read each of these as a separator, so each
# parsed as a valid file; only ASCII spaces and tabs separate tokens and only
# LF ends a line.  (file, error line) pairs.
BAD_SEPARATORS = {
    "no-break-space-field": ("field\u00a0101\nvertices v1 v2\n", 1),
    "em-space-vertices": ("field 101\nvertices\u2003v1 v2\n", 2),
    "line-separator": ("field 101\nvertices v1 v2\u2028arrow a v1 v2\n", 2),
    "lone-cr": ("field 101\rvertices v1\n", 1),
    "nul": ("field 101\nvertices v1\x00\n", 2),
}


@pytest.mark.parametrize("name", sorted(BAD_SEPARATORS))
def test_bad_separator_in_an_algebra_file_is_input_error(name, capsys, tmp_path):
    text, line = BAD_SEPARATORS[name]
    path = tmp_path / "bad.alg"
    path.write_bytes(text.encode("utf-8"))
    code = main(["info", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: whitespace or control character U+")
    assert f"(line {line}, col " in captured.err


BAD_MODULE_SEPARATORS = {
    "no-break-space-dims": ("dims 1\u00a00\n", 1),
    "line-separator": ("dims 1 1\u2028arrow a 1\n", 1),
    "vertical-tab": ("# simple at v1\ndims 1\x0b0\n", 2),
}


@pytest.mark.parametrize("name", sorted(BAD_MODULE_SEPARATORS))
def test_bad_separator_in_a_module_file_is_input_error(name, capsys, tmp_path):
    text, line = BAD_MODULE_SEPARATORS[name]
    path = tmp_path / "bad.mod"
    path.write_bytes(text.encode("utf-8"))
    code = main(["domdim", alg("ka2"), "--module", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: whitespace or control character U+")
    assert f"(line {line}, col " in captured.err


def test_crlf_files_and_tab_separated_tokens_still_parse(capsys, tmp_path):
    # a comment may hold any character
    path = tmp_path / "ka2.alg"
    path.write_bytes("# A2\u00a0\u2028\r\nfield\t101\r\nvertices v1\t \tv2\r\narrow a v1 v2 \r\n".encode())
    assert run(capsys, "info", str(path)) == run(capsys, "info", alg("ka2"))
    (tmp_path / "crlf").mkdir()
    crlf, lf = tmp_path / "crlf" / "m.mod", tmp_path / "m.mod"
    crlf.write_bytes(b"dims\t1 1\r\narrow a\t1\r\n")
    lf.write_bytes(b"dims 1 1\narrow a 1\n")
    code, lines = run(capsys, "domdim", str(path), "--module", str(crlf))
    assert code == 0
    assert (code, lines) == run(capsys, "domdim", alg("ka2"), "--module", str(lf))


def assert_one_error_line(capsys, argv, message, line=None):
    """``ardom argv`` exits 2 with one ``error:`` line holding ``message``
    and naming ``line``, and prints nothing to stdout."""
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    (err,) = captured.err.splitlines()
    assert err.startswith("error: ") and message in err
    if line is not None:
        assert f"line {line}" in err


# (file, message, line named), each refused by parse_presentation
BAD_PRESENTATIONS = {
    "duplicate-field": ("field 101\nvertices v\nfield 101\n", "duplicate field line", 3),
    "empty-vertices": ("field 101\nvertices\n", "vertices line needs at least one name", 2),
    "bad-vertex-name": ("field 101\nvertices v 1w\n", "bad vertex name '1w'", 2),
    "bad-arrow-name": ("field 101\nvertices v w\narrow a-b v w\n", "bad arrow name 'a-b'", 3),
    "empty-relation": ("field 101\nvertices v\narrow x v v\nrelation  # none\n", "empty relation", 4),
    "missing-field": ("vertices v w\narrow a v w\n", "missing field line", None),
    "missing-vertices": ("# nothing but the field\nfield 101\n", "missing vertices line", None),
}


@pytest.mark.parametrize("name", sorted(BAD_PRESENTATIONS))
def test_bad_presentation_is_input_error(name, capsys, tmp_path):
    text, message, line = BAD_PRESENTATIONS[name]
    path = tmp_path / "bad.alg"
    path.write_text(text, encoding="utf-8")
    assert_one_error_line(capsys, ["info", str(path)], message, line)


# module files over ka2 (vertices v1 v2, arrow a: v1 -> v2): (file, message,
# line named), each refused by parse_module
BAD_MODULES = {
    "dims-count": ("dims 1 0 0\n", "expected 2 dimensions", 1),
    "negative-dimension": ("# one\ndims 1 -1\n", "negative dimension", 2),
    "arrow-before-dims": ("arrow a 1\ndims 1 1\n", "dims line must come first", 1),
    "arrow-without-name": ("dims 1 1\narrow\n", "arrow line needs a name", 2),
    "duplicate-arrow": ("dims 1 1\narrow a 1\narrow a 1\n", "duplicate arrow 'a'", 3),
    "unknown-directive": ("dims 1 1\nmatrix a 1\n", "unknown directive 'matrix'", 2),
}


@pytest.mark.parametrize("name", sorted(BAD_MODULES))
def test_bad_module_file_is_input_error(name, capsys, tmp_path):
    text, message, line = BAD_MODULES[name]
    path = tmp_path / "bad.mod"
    path.write_text(text, encoding="utf-8")
    assert_one_error_line(capsys, ["domdim", alg("ka2"), "--module", str(path)], message, line)


# manifests over a corpus holding ka2.alg: (entries, message), each refused
# by load_corpus or when the entry's table is loaded
BAD_MANIFESTS = {
    "duplicate-id": (
        [{"id": "ka2", "file": "ka2.alg"}, {"id": "ka2", "file": "ka2.alg"}],
        "duplicate corpus entry id 'ka2'",
    ),
    "unknown-expected-key": (
        [{"id": "ka2", "file": "ka2.alg", "expected": {"dim": 3, "rank": 2}}],
        "ka2: unknown expected keys ['rank']",
    ),
    "unreadable-presentation": (
        [{"id": "ka2", "file": "ka2.alg"}, {"id": "gone", "file": "gone.alg"}],
        "gone: gone.alg: cannot read: No such file or directory",
    ),
}


@pytest.mark.parametrize("name", sorted(BAD_MANIFESTS))
def test_bad_manifest_entry_is_input_error(name, capsys, tmp_path):
    entries, message = BAD_MANIFESTS[name]
    shutil.copy(alg("ka2"), tmp_path)
    (tmp_path / "manifest.json").write_text(json.dumps({"entries": entries}))
    assert_one_error_line(capsys, ["verify", "--suite", "main", str(tmp_path)], message)


BAD_DIRECTIVE = "field 101\nvertices v\nfoo bar\n"
LONG_ARROW_BLOCK = "dims 1 1\narrow a 1 2\n"  # over ka2, whose arrow a is 1 x 1


def _manifest(*entries):
    return json.dumps({"entries": [{"id": i, "file": f, **more} for i, f, more in entries]})


# (files under the scratch folder D/, where "KA2" stands for ka2.alg, argv,
# the one line on stderr).  argv None calls load_known_indecomposables,
# which no subcommand reads.
REFUSALS = {
    "presentation-info": (
        {"bad.alg": BAD_DIRECTIVE},
        ["info", "D/bad.alg"],
        "D/bad.alg: unknown directive 'foo' (line 3)",
    ),
    "presentation-corpus": (
        {"c/bad.alg": BAD_DIRECTIVE, "c/manifest.json": _manifest(("bad", "bad.alg", {}))},
        ["verify", "D/c"],
        "bad: bad.alg: unknown directive 'foo' (line 3)",
    ),
    "presentation-corpus-jobs-2": (  # raised in a worker and pickled back
        {
            "c/ka2.alg": "KA2",
            "c/bad.alg": BAD_DIRECTIVE,
            "c/manifest.json": _manifest(("ka2", "ka2.alg", {}), ("bad", "bad.alg", {})),
        },
        ["verify", "--jobs", "2", "D/c"],
        "bad: bad.alg: unknown directive 'foo' (line 3)",
    ),
    "module-file": (
        {"m.mod": LONG_ARROW_BLOCK},
        ["domdim", "KA2", "--module", "D/m.mod"],
        "D/m.mod: arrow 'a' needs 1 entries, got 2 (line 2)",
    ),
    "known-indecomposable": (
        {
            "c/ka2.alg": "KA2",
            "c/modules/m.mod": LONG_ARROW_BLOCK,
            "c/manifest.json": _manifest(
                ("ka2", "ka2.alg", {"known_indecomposables": ["modules/m.mod"]})
            ),
        },
        None,
        "ka2: modules/m.mod: arrow 'a' needs 1 entries, got 2 (line 2)",
    ),
    "non-utf8-presentation": (
        {"b.alg": b"field 101\nvertices v\xff\n"},
        ["info", "D/b.alg"],
        "D/b.alg: not UTF-8 from byte 0xFF: invalid start byte (line 2, col 11)",
    ),
    "non-utf8-module": (
        {"m.mod": b"# caf\xe9\ndims 1 0\n"},  # Latin-1
        ["domdim", "KA2", "--module", "D/m.mod"],
        "D/m.mod: not UTF-8 from byte 0xE9: invalid continuation byte (line 1, col 6)",
    ),
    "non-utf8-manifest": (
        {"c/manifest.json": b'{"entries": [\n  "\xff"]}'},
        ["verify", "D/c"],
        "D/c/manifest.json: not UTF-8 from byte 0xFF: invalid start byte (line 2, col 4)",
    ),
    "manifest-json": (
        {"c/manifest.json": '{"entries": [\n  1,,]}'},
        ["verify", "D/c"],
        "D/c/manifest.json: invalid JSON: Expecting value (line 2, col 5)",
    ),
    "infinite-dimensional-corpus-presentation": (
        {"c/loop.alg": "field 101\n" + LOOP, "c/manifest.json": _manifest(("loop", "loop.alg", {}))},
        ["verify", "D/c"],
        "loop: loop.alg: infinite-dimensional: every power of the path x is a normal word, "
        "so nonzero (a cycle of the Ufnarovski graph)",
    ),
    "unreadable-module-file": (
        {},
        ["domdim", "KA2", "--module", "D/gone.mod"],
        "D/gone.mod: cannot read: No such file or directory",
    ),
    "jobs-0": (
        {},
        ["verify", "--jobs", "0", "D/c"],
        "argument --jobs: expected a positive integer, got '0'",
    ),
    "missing-positional": ({}, ["info"], "the following arguments are required: algebra"),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_every_refusal_is_one_located_error_line(name, capsys, tmp_path):
    files, argv, expected = REFUSALS[name]
    for rel, content in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        if content == "KA2":
            shutil.copy(alg("ka2"), path)
        else:
            path.write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))

    def here(text):
        return alg("ka2") if text == "KA2" else text.replace("D/", f"{tmp_path}/")

    expected = "error: " + here(expected)
    if argv is None:
        (entry,) = load_corpus(str(tmp_path / "c"))
        with pytest.raises(InputError) as exc:
            entry.load_known_indecomposables()
        assert f"error: {exc.value}" == expected  # the line main prints for it
        return
    code = main([here(arg) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [expected]


def test_a_disconnected_quiver_warns_in_one_line_naming_the_file(capsys, tmp_path):
    path = tmp_path / "two.alg"
    path.write_text("field 101\nvertices a b\n")
    code = main(["info", str(path)])
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(captured.out)["dimension"] == 2
    message = "quiver is disconnected; invariants are computed per the whole table"
    assert captured.err.splitlines() == [f"warning: {path}: {message}"]


def test_every_corpus_file_reads_as_the_old_whitespace_split_read_it():
    # the ASCII rule for separators changes nothing on the shipped corpus
    def old_rule(text):
        for lineno, raw in enumerate(text.splitlines(), start=1):
            toks = raw.split("#", 1)[0].split()
            if toks:
                yield lineno, toks

    paths = glob.glob(os.path.join(CORPUS, "*.alg")) + glob.glob(
        os.path.join(CORPUS, "modules", "*", "*.mod")
    )
    assert len(paths) > 14
    for path in paths:
        with open(path, encoding="utf-8", newline="") as fh:
            text = fh.read()
        assert list(input_lines(text, ValueError)) == list(old_rule(text)), path


def test_manifest_integer_past_the_digit_limit_is_input_error(capsys, tmp_path):
    # json.load raises a plain ValueError here, not a JSONDecodeError
    (tmp_path / "manifest.json").write_text('{"entries": ' + "9" * 5000 + "}")
    code = main(["verify", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "invalid JSON" in captured.err


def test_plain_value_error_inside_the_engine_exits_4(capsys, monkeypatch):
    import ardom.modules
    from ardom.verify import EXIT_INTERNAL

    def broken(*args, **kwargs):
        raise ValueError("broken submodule")

    monkeypatch.setattr(ardom.modules, "submodule_from_rows", broken)
    code = main(["grade", alg("ka2"), "--sample-index", "0"])
    captured = capsys.readouterr()
    assert code == EXIT_INTERNAL == 4
    assert captured.out == ""
    assert captured.err.splitlines() == ["internal error: broken submodule"]


NON_ADMISSIBLE_LOOP = "field 101\nvertices v\narrow x v v\nrelation x*x*x - x*x*x*x\n"


@pytest.mark.parametrize("command", ["info", "domdim", "gldim"])
def test_non_admissible_ideal_is_input_error(command, capsys, tmp_path):
    # x^3 = x^4 leaves a 4-dim table in which x^k = x^3 != 0 for every k >= 3
    path = tmp_path / "loop.alg"
    path.write_text(NON_ADMISSIBLE_LOOP)
    code = main([command, str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "not admissible" in captured.err


# each flag spells an integer with an optional sign and the ASCII digits 0-9
BAD_INTEGER_FLAGS = [
    ["domdim", "ALG", "--cap", "\u0661"],
    ["domdim", "ALG", "--cap", "1_0"],
    ["grade", "ALG", "--sample-index", "\u0660"],
    ["grade", "ALG", "--sample-index", "0", "--ext-degree", "\u0661"],
    ["ar-check", "ALG", "--n", "\u0661"],
    ["scan", "nakayama", "--simples", "\u0662", "--max-len", "3"],
    ["scan", "nakayama", "--simples", "2", "--max-len", "\uff13"],
    ["verify", "--n", "\u0661..\u0663", "CORPUS"],
    ["verify", "--n", "\u0662", "CORPUS"],
    ["verify", "--jobs", "\u0662", "CORPUS"],
    ["verify", "--suite", "grade", "--seed", "\u0660", "CORPUS"],
    ["verify", "--suite", "grade", "--sample-size", "1_6", "CORPUS"],
    ["info", "ALG", "--max-path-length", "\u0663\u0660"],
]

# a subcommand rejects the shared options it does not read
UNREAD_OPTIONS = [
    ["info", "ALG", "--jobs", "2"],
    ["verify", "--max-path-length", "40", "CORPUS"],
    ["scan", "nakayama", "--simples", "2", "--max-len", "3", "--seed", "1"],
    ["torsion", "ALG", "--cap", "3"],
    ["ar-check", "ALG", "--n", "1", "--sample-size", "2"],
]


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "nakayama", "--simples", "0", "--max-len", "3"],
        ["scan", "nakayama", "--simples", "2", "--max-len", "1"],
        ["ar-check", "ALG", "--n", "-1"],
        ["grade", "ALG", "--sample-index", "-1"],
        ["gldim", "ALG", "--module", "ZERO"],
        ["torsion", "ALG", "--module", "HUGE"],
        ["torsion", "ALG", "--module", "TALL"],
        ["info", "BINARY"],
        ["verify", "--suite", "grade", "--seed", "-1", "CORPUS"],
        ["torsion", "ALG", "--sample-index", "0", "--seed", "-2"],
        ["verify", "--suite", "grade", "--sample-size", "-3", "CORPUS"],
        ["info", "ALG", "--max-path-length", "0"],
        ["info", "ALG", "--max-path-length", "-1"],
        *UNREAD_OPTIONS,
        *BAD_INTEGER_FLAGS,
    ],
)
def test_argument_and_file_errors_exit_2(argv, capsys, tmp_path):
    (tmp_path / "zero.mod").write_text("dims 0 0\n")
    (tmp_path / "huge.mod").write_text("dims 10000000000 10000000000\n")  # no zero blocks that big
    (tmp_path / "tall.mod").write_text("dims 1000000 0\n")  # no arrow block, but a huge identity
    (tmp_path / "binary.alg").write_bytes(b"\xff\xfe field 101\n")
    paths = {"ALG": alg("ka2"), "ZERO": str(tmp_path / "zero.mod"), "CORPUS": CORPUS}
    paths["HUGE"] = str(tmp_path / "huge.mod")
    paths["TALL"] = str(tmp_path / "tall.mod")
    paths["BINARY"] = str(tmp_path / "binary.alg")
    code = main([paths.get(arg, arg) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    (err,) = captured.err.splitlines()  # argparse's refusals too: no usage block
    assert err.startswith("error: ")
    if argv in UNREAD_OPTIONS:
        assert err.startswith("error: unrecognized arguments: --")
    elif argv in BAD_INTEGER_FLAGS:  # each integer flag is read by one rule
        assert err.startswith("error: argument --") and ": expected a " in err


def test_env_cap_override(capsys, monkeypatch):
    monkeypatch.setenv("ARDOM_CAP", "2")
    code, lines = run(capsys, "gldim", alg("nak-233"))
    assert code == 3
    (rec,) = records(lines)
    assert rec["cap"] == 2
    assert rec["result"] == {"kind": "at_least", "value": 3}
    # an explicit flag wins over the environment
    code, lines = run(capsys, "gldim", alg("nak-233"), "--cap", "5")
    (rec,) = records(lines)
    assert rec["cap"] == 5


@pytest.mark.parametrize("value", ["1", "0", "-3"])
def test_a_max_length_below_two_is_refused_by_its_flag(value, capsys):
    # the parser names the flag; the library keeps its own check for callers
    code = main(["scan", "nakayama", "--simples", "2", "--max-len", value])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (
        f"error: argument --max-len: expected a length of at least 2, got '{value}'\n"
    )


def test_bad_env_cap_is_input_error(capsys, monkeypatch):
    monkeypatch.setenv("ARDOM_CAP", "many")
    code = main(["gldim", alg("ka2")])
    assert code == 2


def test_env_cap_is_read_only_by_subcommands_with_a_cap(capsys, monkeypatch):
    monkeypatch.setenv("ARDOM_CAP", "many")
    assert run(capsys, "torsion", alg("ka2"))[0] == 0
    assert run(capsys, "info", alg("ka2"))[0] == 0


# every option of each subcommand; the shared ones fill 30 slots
SUBCOMMAND_OPTIONS = {
    "info": "--format --max-path-length",
    "domdim": "--format --max-path-length --cap --seed --sample-size --module --sample-index",
    "grade": "--format --max-path-length --cap --seed --sample-size --module --sample-index "
    "--ext-degree",
    "torsion": "--format --max-path-length --seed --sample-size --module --sample-index",
    "gldim": "--format --max-path-length --cap --seed --sample-size --module --sample-index",
    "ar-check": "--format --max-path-length --n",
    "verify": "--format --cap --seed --sample-size --jobs --suite --n",
    "scan": "--format --cap --simples --max-len --question",
}
SHARED_OPTIONS = {"--format", "--max-path-length", "--cap", "--seed", "--sample-size", "--jobs"}


def test_each_subcommand_takes_only_the_options_it_reads():
    (sub,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    got = {
        name: {o for o in p._option_string_actions if o.startswith("--") and o != "--help"}
        for name, p in sub.choices.items()
    }
    assert got == {name: set(opts.split()) for name, opts in SUBCOMMAND_OPTIONS.items()}
    assert sum(len(opts & SHARED_OPTIONS) for opts in got.values()) == 30


@pytest.mark.parametrize("jobs", ["-3", "0", "two"])
def test_jobs_below_one_is_input_error(capsys, jobs):
    argv = ["verify", "--suite", "main", "--jobs", jobs, CORPUS]
    assert_one_error_line(capsys, argv, "argument --jobs: ")


def test_selfinjective_flag_on_a_non_selfinjective_algebra_is_input_error(capsys, tmp_path):
    path = tmp_path / "a2.alg"
    path.write_text("field 101\nvertices v1 v2\narrow a v1 v2\nflags selfinjective\n")
    code = main(["domdim", str(path)])
    assert code == 2
    assert "flag selfinjective does not hold" in capsys.readouterr().err


# The digest of `ardom verify --n 1..3 corpus/`: 78 records, one of them
# inconclusive (nak-233 gorenstein).  A change that alters this output on
# purpose updates the digest and says why in CHANGES.md.
VERIFY_N_1_3_SHA256 = "8f0a42d8cb8d90a027ded60de528978b01e253d4d4ec8e05a7e5a0c9f759e7a9"


def test_verify_output_is_byte_identical_to_the_golden_digest(capsys):
    code = main(["verify", "--n", "1..3", CORPUS])
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 78
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == VERIFY_N_1_3_SHA256
    assert code == 3


# Run as ``main`` in a fresh interpreter.  The wrapper of the callable that
# ``run_suite`` maps fails a ``--jobs`` run whose workers load numpy.random,
# and the exit status fails a run that loads it in the parent.  Every
# ``load_corpus`` the package can reach appends its process id to the file
# named by $LOAD_CORPUS_LOG, and every entry run appends its process id to
# $ENTRY_LOG.  At exit the probe writes to $POOL_LOG which of the process
# pool's packages the parent loaded.  The probe lives in an importable module
# so that a worker can unpickle the wrapper, and so patch its own
# ``load_corpus``, under any start method.
VERIFY_PROBE = """
import os
import sys

import ardom.cli
import ardom.corpus
import ardom.verify

POOL_PACKAGES = ("concurrent.futures", "multiprocessing")

entry_verdicts = ardom.verify._entry_verdicts
load_corpus = ardom.corpus.load_corpus


def counted_load_corpus(root):
    with open(os.environ["LOAD_CORPUS_LOG"], "a", encoding="utf-8") as fh:
        fh.write(f"{os.getpid()}\\n")
    return load_corpus(root)


for module in (ardom.cli, ardom.corpus, ardom.verify):
    if hasattr(module, "load_corpus"):
        module.load_corpus = counted_load_corpus


def checked_verdicts(*args, **kwargs):
    with open(os.environ["ENTRY_LOG"], "a", encoding="utf-8") as fh:
        fh.write(f"{os.getpid()}\\n")
    verdicts = entry_verdicts(*args, **kwargs)
    if "numpy.random" in sys.modules:
        raise RuntimeError("a verify worker loaded numpy.random")
    return verdicts


def main(argv):
    ardom.verify._entry_verdicts = checked_verdicts
    code = ardom.cli.main(argv)
    with open(os.environ["POOL_LOG"], "w", encoding="utf-8") as fh:
        fh.writelines(f"{name}\\n" for name in POOL_PACKAGES if name in sys.modules)
    return "verify loaded numpy.random" if "numpy.random" in sys.modules else code
"""


def _probed(tmp_path, *argv):
    """(process, load_corpus process ids, entry process ids, pool packages
    loaded) of ``ardom argv`` under the probe."""
    (tmp_path / "verify_probe.py").write_text(VERIFY_PROBE)
    names = ("LOAD_CORPUS_LOG", "ENTRY_LOG", "POOL_LOG")
    logs = {name: tmp_path / f"{name.lower()}.log" for name in names}
    path = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([SRC, str(tmp_path)] + ([path] if path else [])),
        **{name: str(log) for name, log in logs.items()},
    )
    probe = "import sys, verify_probe\nsys.exit(verify_probe.main(sys.argv[1:]))\n"
    proc = subprocess.run(
        [sys.executable, "-c", probe, *argv], capture_output=True, text=True, env=env
    )
    read = [
        log.read_text(encoding="utf-8").splitlines() if log.exists() else []
        for log in logs.values()
    ]
    return (proc, *read)


def _probed_verify(jobs, tmp_path, corpus=CORPUS):
    """``_probed`` of ``verify --jobs jobs --n 1..3 corpus``."""
    return _probed(tmp_path, "verify", "--jobs", jobs, "--n", "1..3", str(corpus))


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_never_loads_numpy_random(jobs, tmp_path):
    # only the seeded module sample draws from numpy.random; a verify whose
    # grade suite knits or lists every indecomposable never imports it,
    # which costs several ms in each fresh process and each worker
    proc, *_ = _probed_verify(jobs, tmp_path)
    assert proc.returncode == 3, proc.stderr
    assert hashlib.sha256(proc.stdout.encode("utf-8")).hexdigest() == VERIFY_N_1_3_SHA256


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_reads_the_manifest_once(jobs, tmp_path):
    # a pool worker gets its entry from the parent rather than reload the
    # corpus for it
    proc, loads, _, _ = _probed_verify(jobs, tmp_path)
    assert proc.returncode == 3, proc.stderr
    assert len(loads) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--jobs", "1", "--n", "1..3", CORPUS],
        ["scan", "nakayama", "--simples", "4", "--max-len", "6", "--question"],
        ["domdim", alg("ka2")],
    ],
)
def test_a_serial_run_never_loads_the_process_pool(argv, tmp_path):
    # concurrent.futures and multiprocessing cost about 1.3 MB and 8-12 ms
    # in every fresh process; only a verify that forks needs them
    proc, _, entries, pool = _probed(tmp_path, *argv)
    assert proc.returncode in (0, 3), proc.stderr
    assert pool == []
    if argv[0] == "verify":
        assert len(entries) == 14


def test_a_pool_of_jobs_over_one_entry_forks_nothing(tmp_path):
    # run_suite starts at most one worker per entry, so no pool at all here
    proc, loads, entries, pool = _probed_verify("4", tmp_path, ka2_corpus(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert pool == []
    assert len(loads) == 1
    assert entries == loads  # the one entry ran in the parent


def test_verify_with_two_jobs_loads_the_pool_in_the_parent(tmp_path):
    proc, loads, entries, pool = _probed_verify("2", tmp_path)
    assert proc.returncode == 3, proc.stderr
    assert hashlib.sha256(proc.stdout.encode("utf-8")).hexdigest() == VERIFY_N_1_3_SHA256
    assert pool == ["concurrent.futures", "multiprocessing"]
    assert len(entries) == 14
    assert not set(entries) & set(loads)  # every entry ran in a worker


def test_default_verify_checks_every_indecomposable(capsys):
    # every grade and torsion-pdim record proves its bounds: vacuous, or all
    # indecomposables (uniserials or a knitted AR quiver), never a sample
    main(["verify", "--n", "1..3", CORPUS])
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    kinds = [r["detail"]["modules"]["kind"] for r in records if "modules" in r["detail"]]
    assert len(kinds) == 16
    assert set(kinds) == {"vacuous", "all indecomposables"}
    assert "sampled" not in json.dumps(records)


# The digest of `ardom scan nakayama --simples 4 --max-len 6 --question`: 36
# records, exit 0.  Like VERIFY_N_1_3_SHA256, a change that alters this output
# on purpose updates the digest and says why in CHANGES.md.
SCAN_M4_L6_SHA256 = "9540edf10a8128cb2351f65003d291e3bc7cc130987452c2193e7389eee9c2cd"
# `--simples 5 --max-len 6 --question`: 79 records, exit 0; the longest
# dominant-dimension loops of the scans that tier-1 runs
SCAN_M5_L6_SHA256 = "762383e5cde22f7549c84dc9fe80b5cd7d0d1edc10974776083c8c998b1ea8b6"
# `--simples 6 --max-len 6 --question`: 211 records, exit 0, about 2 s
SCAN_M6_L6_SHA256 = "625370b4ceb5a2b8c957fbb6efc80cdebc5215a03b72f634143d99dfae35c447"


def assert_scan_digest(capsys, simples, max_len, lines, digest):
    code = main(["scan", "nakayama", "--simples", simples, "--max-len", max_len, "--question"])
    out = capsys.readouterr().out
    assert len(out.splitlines()) == lines
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
    assert code == 0


def test_scan_output_is_byte_identical_to_the_golden_digest(capsys):
    assert_scan_digest(capsys, "4", "6", 36, SCAN_M4_L6_SHA256)


def test_larger_scan_output_is_byte_identical_to_the_golden_digest(capsys):
    assert_scan_digest(capsys, "5", "6", 79, SCAN_M5_L6_SHA256)


def test_six_simple_scan_output_is_byte_identical_to_the_golden_digest(capsys):
    assert_scan_digest(capsys, "6", "6", 211, SCAN_M6_L6_SHA256)


def test_scan_output_is_the_same_under_python_O():
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    argv = ["-m", "ardom.cli", "scan", "nakayama", "--simples", "3", "--max-len", "4", "--question"]
    runs = [
        subprocess.run([sys.executable, *flags, *argv], capture_output=True, text=True, env=env)
        for flags in ([], ["-O"])
    ]
    assert runs[0].returncode == runs[1].returncode == 0, runs[0].stderr
    assert runs[0].stdout == runs[1].stdout
    assert len(records(runs[0].stdout.splitlines())) > 1


def test_console_script_entry_point_runs_info():
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(SRC, os.pardir, "pyproject.toml"), "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    module, _, attr = scripts["ardom"].partition(":")
    assert (module, attr) == ("ardom.cli", "main")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    launcher = (
        "import importlib, sys\n"
        f"sys.exit(getattr(importlib.import_module({module!r}), {attr!r})())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", launcher, "info", alg("ka2")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["algebra"] == "ka2"


# sha256 of `ardom torsion ALG` stdout (the torsion of each simple, with its
# module_text) for every corpus entry, recorded before torsion was read off the
# degree-0 cocycles of the minimal presentation, when it solved one Hom system
# per vertex.  The route changed, the bytes may not.
TORSION_SHA256 = {
    "auslander-x2": "3da24481e8f5604a3e9cf35b458d4fc15e900d9f2d63fc363ee982f2c45f92fa",
    "auslander-x3": "866eb833e85a6de9aa7eba2a4613214df52d367633fff7bb8c8caf2169df0bc7",
    "comm-square": "d0636ab5e8c08a21e51f3105568b6ceb511f6a5038179baef59724c0e278be5d",
    "ka2": "4e539aa4be4cc8203b8d075d77e8cff64bb6869d513c67d1bd5f0236edd5551e",
    "kronecker": "0bbd0522798dfdfdade71b1d20d1e46e9ec319fad5a0892e1e4995efc6c910fb",
    "linear-a3": "e3b454fe5aa8e3661b513cf5fa27c2251e7119b38a5bccc88c2e7fc87c2debd2",
    "linear-a4": "14d1950ab82bbe41ae632aa13a56c915e7a87422a93e2a597c2144139ee87e82",
    "nak-22": "0ec473b5ee079b67c9cbeefcaa0367fc48598a30b700b1731cff6a6c7651832c",
    "nak-233": "e8aea0f724a02874c202828c9f32464d477543168a9c1f64c85cf8fd4de5dcc2",
    "nak-32": "aff4b08dcab39a56963b74ef7b0f8be256b09677b355fc01c905a785cf4dd433",
    "nak-33": "bee4a34d92dfbb507a2ed292a4ccaeb70d68aba5d334cd3f41290b26108201d8",
    "nak-344": "8d9d25fccd4e63ea1e9fe5dd5cb7af0f8e191dfd0335bed4764092ac21f1b047",
    "nak-432": "c1458b1ff04963fb85f12d0bcba7d84d75f1adc8adc52326cf4167e03370046f",
    "wild3": "771af1ba197d5f3f84f5a9a36fe15d2f5e8e7d26f80e81157b6675b34d459b79",
}


@pytest.mark.parametrize("name", sorted(TORSION_SHA256))
def test_torsion_output_is_byte_identical_to_the_golden_digest(capsys, name):
    assert main(["torsion", alg(name)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == TORSION_SHA256[name]


# sha256 of `ardom ar-check ALG --n N` stdout for every corpus entry and
# N = 1..3, recorded when the sweep still built every almost split sequence
# for every caller.  `ar-check` prints the full report, every vertex and every
# term, so a sweep that stops early must not reach it.
AR_CHECK_SHA256 = {
    ("auslander-x2", 1): "c29d2888373f61ab82c2933ca964eddef76d802af94d985d40d5c8dcfd953250",
    ("auslander-x2", 2): "004123de46b7e03091d6b6f9a481181c412d42d6dc641a807a8024ea08b18b66",
    ("auslander-x2", 3): "9f0018f12077d0479de90562ca2a86aa4a087435b58df69e4e4b9aba488fbcd4",
    ("auslander-x3", 1): "cd56e4aeda0b5f8fa8a53a035b9635e271076e9827fd1c97a7430afb1b4d34b4",
    ("auslander-x3", 2): "c45b73093c46e54d8e3e02c3ac65d703da2a16ed307db076cfcfeeed148d2e04",
    ("auslander-x3", 3): "ae7a349ab96e99173570e095cc102804a1da1855ede9a7e1740d209b00f399e5",
    ("comm-square", 1): "2a2d6439e1d21717a15b78d1088aa24b6b263013c399842536504edea4c5b408",
    ("comm-square", 2): "b92af653c5718558501c4060fc36f5a05e192c20d29dd0aefb722b0fe8df631d",
    ("comm-square", 3): "2d5a3b67ed59407c5d777dbf2cdcfaea31b95762be9078053dfdb8fe1d5664b1",
    ("ka2", 1): "e8835bfa034c3bd457d9b59463a1170e13f517d867a4b8ea44d43c29da5aaf98",
    ("ka2", 2): "7802211480035a1b1bc532fbb731374757a6213d3645274e661444e4c5299389",
    ("ka2", 3): "c87c736311db441f1821f3540706322121251915bac972992a8781b9ef47f73b",
    ("kronecker", 1): "789765895bb406ccca349c52bca29a7783b64636e83f9abf8ffe0f6969add1fe",
    ("kronecker", 2): "65f28907101e43ad76fc36603172947b0b28e6ba119ba51bca2472ff61da02a8",
    ("kronecker", 3): "bc6476a64316556666345392fe902139884f1b0bd1d40dd5c7a3c34671f18654",
    ("linear-a3", 1): "752f60ddf182faa4e6733d140e794a79eb1bd279bf5500e1ab6e1dc99da7c86e",
    ("linear-a3", 2): "7a38471c62f6b2d20bb28f511feddaf61ce0ec0e15cca2d6d31ad7e1a9b73de6",
    ("linear-a3", 3): "007b19e736ba6f481db923858d98b0fc820a7a451b85bb085d431c21205e6820",
    ("linear-a4", 1): "a85755dc1d4f1566c412f20faede26966ceee7c815f4f52e5328857e87d54a52",
    ("linear-a4", 2): "c1e415f2527e72970cf80179745d1287622607324ca7bea0b8205d83bddf71cf",
    ("linear-a4", 3): "47df151dfe1d1f038d8f3db32af5dfcbf51caaf40638471dc5c1503f4390864f",
    ("nak-22", 1): "2e5beb4577a507f971e887c676388ad0e8629af63215879692fa3864f806dea1",
    ("nak-22", 2): "01545767398475157a393adfcf3ca8e0eab555c9c20c653e2e1196a4184ff322",
    ("nak-22", 3): "fcd6f28db8fae9ba7a7b6700abc0e619de3e62c10e4b7f9240349bdaf46b946c",
    ("nak-233", 1): "e0050e6d98deca931c42e4b4c34f94e2877330421ca44095a6e2f34816ca8852",
    ("nak-233", 2): "6902e38544f33e2b33f3ba7262c1b1df9d37f598db64e5eec508f70b5e6f12c2",
    ("nak-233", 3): "abea9f0316071447e9e5b853afa9ccb1f2381ffc391bc8deb863e804bd048a4c",
    ("nak-32", 1): "472f87c546f56c831c0aec8162f31f348f19e75d12185b89ff6851799c96d963",
    ("nak-32", 2): "4e57475c9b3acd8f7d447234d92c81daaf849b3ae7016ad1e6dec2f546881cc6",
    ("nak-32", 3): "12269f510a93c6847b819dd1394d88b107e82fe9d4aadeba6c82907ef57f9d64",
    ("nak-33", 1): "e36b9ac70e1cb4c822140d695ac981e10e4d72fa662de60c9f44152d154bb6cb",
    ("nak-33", 2): "60e848af20159f134e1cdad386b426ac11be9b27cffab3e6f73ce2a640e7ca2e",
    ("nak-33", 3): "ce9dfc830e4f107a558d6efef416cc5e2cbab08fe6b730b1384291ba3fd18174",
    ("nak-344", 1): "4e70462f997c62b60a9d5aad2a761f37d10d6e6c5b2627368822c0b79e0455af",
    ("nak-344", 2): "b2c5914f7b8c0e6699ee946c0a450571ee80fedb794ce59a09cb9cec53d95cf5",
    ("nak-344", 3): "7b7f60a62ccc1fc363412c29363a741d9cc5158bd49e3ed6b909238a2de74ad8",
    ("nak-432", 1): "4d8d12455f4c50791ddd15e8b185590bddd5bed64203dd7acedc3b1bcda4a09d",
    ("nak-432", 2): "4712bcef38783c814893b3951a91bdd981fde4bbe144c0ca06d2e46020db2a37",
    ("nak-432", 3): "edcd13763382383d906180f88a529ccef64cde19e57c627160b9879c81985952",
    ("wild3", 1): "f9ba4121dcb72b166588ab69802d7bc2d665982fcde7feabd3f3ecd60541bfc6",
    ("wild3", 2): "0ba196b1e742c938c810da916a77c4e1df0be3199561d67c61822723791f0ecd",
    ("wild3", 3): "89fe4471945d5adb84e9fadc633b3b3c8c37b4ca56d7a7458ed7fbf4776d95d8",
}


@pytest.mark.parametrize("name, n", sorted(AR_CHECK_SHA256))
def test_ar_check_output_is_byte_identical_to_the_golden_digest(capsys, name, n):
    code = main(["ar-check", alg(name), "--n", str(n)])
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == AR_CHECK_SHA256[name, n]
    assert code == (0 if json.loads(out)["holds"] else 1)


# sha256 of `ardom grade ALG --sample-index K --ext-degree D` stdout, recorded
# when Ext^D was read at degree D of the resolution of the module itself.  It
# is now degree 1 of the (D-1)-th syzygy.  auslander-x3 sample 3 is P(v1);
# sample 20 has nonzero Ext^1 and Ext^2, the nak-233 samples nonzero Ext^3 or
# Ext^4.
GRADE_EXT_SHA256 = {
    ("auslander-x3", 3, 1): "ffa6c3602ff57860e13c8bba5a6e1064fe4c74cb4ac28fe4c711759186b6537a",
    ("auslander-x3", 3, 2): "8a4e01dffe7edb31fb89eb382a4d1204dd3d7bbcf1fa718cc8fd88d449bb7705",
    ("auslander-x3", 3, 3): "511f4316661aea30e6f8284371c28ab11bf29b14560c55a4b8d1b7d083b0f2dd",
    ("auslander-x3", 3, 4): "2c446eddc641d8bc3f851cf3247416edf066a814f9e7d5c45c29c8b918903eb0",
    ("auslander-x3", 20, 1): "3c96cb44e27a69ca74aef3673420a71ed1b0f3d9383da02f1a21ed7838a1f522",
    ("auslander-x3", 20, 2): "04f57cff643720a7420b06fe46588534664794c7c2272b205671e712a3104735",
    ("auslander-x3", 20, 3): "0d0092469a15805f95b36830625908d6222fc1e9478ab78fb9fc5c94dbb1cfdd",
    ("auslander-x3", 20, 4): "2d3b13284c33817ade6794f9ae81db411a9a7577929cd1a790dd47816bf4d311",
    ("nak-233", 7, 1): "0cd87e729b760d29a6c6d2717e251daa396f4138cd761296aa5ca8aed5af1b75",
    ("nak-233", 7, 2): "06b2cfa62dbaab126a30e9cdf79724de9ca1b0576311f4ff4306f20dbd73267d",
    ("nak-233", 7, 3): "bd441d8f6370831b02a8aa371071f2a524a0d479a67f972204ff1078590ddde1",
    ("nak-233", 7, 4): "2c671c25e7c4d9063ff0d36f1814b6ac9f631c367db9229c29bded59ed7bec94",
    ("nak-233", 13, 1): "ddba9a6fc7ba7d1d9568e47fd2f52ca1ceb977ae3c04ea154586be4a265c1f6a",
    ("nak-233", 13, 2): "d1114895fd02b8874842ba0d956c10ceafbefb752f4519d92f5e8fa99e868ee6",
    ("nak-233", 13, 3): "64a864e243c273046c7f18fbb193b926b73e46394d7067a5888d33f5213f70dc",
    ("nak-233", 13, 4): "13f3f3bf8408c5c35a644000e467781f7a6c087b9f04ea3404709d95abc9eec3",
}


@pytest.mark.parametrize("name, index, degree", sorted(GRADE_EXT_SHA256))
def test_grade_ext_output_is_byte_identical_to_the_golden_digest(capsys, name, index, degree):
    argv = ["grade", alg(name), "--sample-index", str(index), "--ext-degree", str(degree)]
    main(argv)
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GRADE_EXT_SHA256[name, index, degree]


# The syzygies of these simples repeat with period 2 from degree 1 on, so
# Ext^(10^9 + r) is Ext^(2 + r).  Degrees 2..5 resolve to Ω^4 at most, before
# any period is skipped, so they are a plain walk.  Over nak-233, S(v2) has
# nonzero Ext exactly in even degrees, so four consecutive degrees tell a
# skip by a wrong period from the right one.
@pytest.mark.parametrize("name, index", [("nak-22", 0), ("nak-233", 1)])
def test_ext_degree_far_past_the_period_returns_at_once(capsys, name, index):
    def result(degree):
        started = time.perf_counter()
        code, lines = run(
            capsys, "grade", alg(name), "--sample-index", str(index), "--ext-degree", str(degree)
        )
        elapsed = time.perf_counter() - started
        (rec,) = records(lines)
        assert rec["invariant"] == f"grade-ext{degree}"
        return code, rec["result"], elapsed

    for r in range(4):
        code, value, _ = result(2 + r)
        huge_code, huge_value, elapsed = result(10**9 + r)
        assert elapsed < 2.0
        assert (huge_code, huge_value) == (code, value)


# --- the remaining forms and text renderings ---------------------------------


def test_verify_takes_a_single_n(capsys):
    code, lines = run(capsys, "verify", "--suite", "main", "--n", "2", CORPUS)
    assert code == 0
    recs = records(lines)
    assert len(recs) == 14
    assert all(r["check"] == "main-theorem" and r["detail"]["n"] == 2 for r in recs)
    argv = ["verify", "--suite", "main", "--n", "0", CORPUS]
    assert_one_error_line(capsys, argv, "expected a positive value or A..B range, got '0'")


def test_negative_cap_is_input_error(capsys):
    code = main(["domdim", alg("ka2"), "--cap", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: argument --cap: expected a non-negative integer, got '-1'\n"


def test_torsion_text(capsys):
    code, lines = run(capsys, "torsion", alg("ka2"), "--format", "text")
    assert code == 0
    assert lines == ["t(S(v1)) over ka2: dims [1, 0]", "t(S(v2)) over ka2: zero"]


def test_ar_check_text_on_a_selfinjective_algebra_prints_the_vacuous_note(capsys):
    code, lines = run(capsys, "ar-check", alg("nak-22"), "--n", "2", "--format", "text")
    assert code == 0
    assert lines == [
        "2-torsion-free AR sequences over nak-22: hold",
        "  v1: skipped (projective is injective)",
        "  v2: skipped (projective is injective)",
        "  vacuous: every projective is injective",
    ]


def test_scan_text(capsys, monkeypatch):
    argv = ("scan", "nakayama", "--simples", "2", "--max-len", "3", "--question")
    argv += ("--format", "text")
    code, lines = run(capsys, *argv)
    assert code == 0
    assert lines[:3] == [
        "series=[2, 2]  selfinjective=True  domdim=inf (finite coresolution with all terms projective)",
        "series=[2, 3]  selfinjective=False  domdim=2  tf_ar_at_2m=False",
        "series=[3, 3]  selfinjective=True  domdim=inf (finite coresolution with all terms projective)",
    ]
    assert lines[3].startswith("PASS  nakayama-scan    cyclic-nakayama-m2 bound=4")
    assert len(lines) == 4
    # a row that violates the bound is marked, and the verdict fails
    import ardom.verify

    monkeypatch.setattr(ardom.verify, "has_n_tf_ar_sequences", lambda tbl, n: (True, []))
    code, lines = run(capsys, *argv)
    assert code == 1
    assert lines[1] == (
        "series=[2, 3]  selfinjective=False  domdim=2  tf_ar_at_2m=True  "
        "VIOLATES: 2m-torsion-free AR sequences without selfinjectivity"
    )
    assert lines[3].startswith("FAIL  nakayama-scan")
