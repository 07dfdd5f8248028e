"""End-to-end tests of the ardom command line interface."""

import json
import os
import shutil
import subprocess

import pytest

from ardom.cli import main
from ardom.homology import domdim_module
from ardom.modules import parse_module

CORPUS = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")


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
    assert code == 0
    assert all(line.startswith("PASS") for line in lines)


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
    with pytest.raises(SystemExit) as exc:  # argparse rejects the combination
        main(["grade", alg("ka2"), "--module", "x", "--sample-index", "1"])
    assert exc.value.code == 2


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


def test_bad_degree_is_input_error(capsys):
    code = main(["ar-check", alg("ka2"), "--n", "0"])
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "main", "--n", "3..1", CORPUS])
    assert exc.value.code == 2


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


def test_bad_env_cap_is_input_error(capsys, monkeypatch):
    monkeypatch.setenv("ARDOM_CAP", "many")
    code = main(["gldim", alg("ka2")])
    assert code == 2


@pytest.mark.skipif(shutil.which("ardom") is None, reason="ardom not on PATH")
def test_console_script():
    proc = subprocess.run(
        ["ardom", "info", alg("ka2")], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["algebra"] == "ka2"
