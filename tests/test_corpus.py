import json
import os
import re

import numpy as np
import pytest

from ardom.algebra import nakayama_from_kupisch
from ardom.corpus import CorpusError, capped_matches, load_corpus
from ardom.homology import (
    domdim_algebra,
    domdim_R_via_mueller,
    gldim,
    gorenstein_dim,
)
from ardom.linalg import PrimeField
from ardom.modules import is_projective, is_selfinjective, validate
from reference import hom_basis

CORPUS_ROOT = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")


@pytest.fixture(scope="module")
def corpus():
    return load_corpus(CORPUS_ROOT)


def test_manifest_loads_enough_entries(corpus):
    assert len(corpus) >= 10
    ids = [e.entry_id for e in corpus]
    assert len(set(ids)) == len(ids)
    assert ids[0] == "ka2"  # manifest order is the report order


def test_every_presentation_builds_and_has_expected_dimension(corpus):
    for entry in corpus:
        tbl = entry.load_table()
        assert tbl.dimension == entry.expected["dim"], entry.entry_id
        assert ("selfinjective" in tbl.flags) == entry.expected["selfinjective"]
        assert is_selfinjective(tbl) == entry.expected["selfinjective"], entry.entry_id


def test_expected_invariants_match_computation(corpus):
    for entry in corpus:
        tbl = entry.load_table()
        assert capped_matches(entry.expected["domdim"], domdim_algebra(tbl)), entry.entry_id
        assert capped_matches(entry.expected["gldim"], gldim(tbl)), entry.entry_id
        assert capped_matches(
            entry.expected["mueller"], domdim_R_via_mueller(tbl)
        ), entry.entry_id
        assert capped_matches(
            entry.expected["gorenstein"], gorenstein_dim(tbl)
        ), entry.entry_id


def test_known_indecomposables_are_valid_and_indecomposable(corpus):
    hereditary = [e for e in corpus if e.is_classified("hereditary")]
    assert len(hereditary) == 5
    for entry in hereditary:
        mods = entry.load_known_indecomposables()
        assert mods, entry.entry_id
        for name, m in mods:
            assert validate(m) is None, f"{entry.entry_id}/{name}"
            # End(M) = k is the working indecomposability certificate here
            assert hom_basis(m, m).dim == 1, f"{entry.entry_id}/{name}"


def test_known_lists_mix_projectives_and_nonprojectives(corpus):
    by_id = {e.entry_id: e for e in corpus}
    mods = dict(by_id["kronecker"].load_known_indecomposables())
    assert is_projective(mods["proj-1"])
    assert is_projective(mods["simple-2"])
    assert not is_projective(mods["reg-1"])
    assert not is_projective(mods["preinj-21"])


def test_nakayama_files_match_the_builder(corpus):
    by_id = {e.entry_id: e for e in corpus}
    for entry_id, series in [("nak-32", [3, 2]), ("nak-344", [3, 4, 4])]:
        from_file = by_id[entry_id].load_table()
        built = nakayama_from_kupisch(series, cyclic=True)
        assert from_file.dimension == built.dimension
        assert from_file.quiver.vertices == built.quiver.vertices
        assert str(domdim_algebra(from_file)) == str(domdim_algebra(built))


def test_load_corpus_error_cases(tmp_path):
    with pytest.raises(CorpusError, match="not found"):
        load_corpus(str(tmp_path / "missing"))
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(CorpusError, match="manifest"):
        load_corpus(str(empty))
    (empty / "manifest.json").write_text('{"entries": []}')
    with pytest.raises(CorpusError, match="no entries"):
        load_corpus(str(empty))
    (empty / "manifest.json").write_text("{broken")
    with pytest.raises(CorpusError, match="invalid JSON"):
        load_corpus(str(empty))


def test_manifest_shapes_that_are_not_objects(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text('{"entries": [1]}')
    with pytest.raises(CorpusError, match="entry #1 must be an object"):
        load_corpus(str(tmp_path))
    manifest.write_text("[1]")
    with pytest.raises(CorpusError, match="no entries"):
        load_corpus(str(tmp_path))
    manifest.write_text('{"entries": [{"id": "x", "file": "x.alg", "expected": [1]}]}')
    with pytest.raises(CorpusError, match="expected must be an object"):
        load_corpus(str(tmp_path))


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("classification", '"auslander"', "classification must be a list of non-empty strings"),
        ("classification", '["auslander", 3]', "classification must be a list of non-empty strings"),
        ("classification", '[""]', "classification must be a list of non-empty strings"),
        ("classification", '["auslander", "tilted"]', r"unknown classification labels \['tilted'\]"),
        ("known_indecomposables", '"modules/x/s.mod"', "known_indecomposables must be a list"),
        ("known_indecomposables", '{"a": 1}', "known_indecomposables must be a list"),
        ("known_indecomposables", "[null]", "known_indecomposables must be a list"),
    ],
)
def test_manifest_string_lists_are_checked(tmp_path, key, value, message):
    # a string used to be read as its tuple of characters, so an entry
    # classified "auslander" ran no cor47 check and nothing said so
    (tmp_path / "manifest.json").write_text(
        f'{{"entries": [{{"id": "x", "file": "x.alg", "{key}": {value}}}]}}'
    )
    with pytest.raises(CorpusError, match=f"^x: {message}"):
        load_corpus(str(tmp_path))


@pytest.mark.parametrize("key", ["file", "known_indecomposables"])
@pytest.mark.parametrize("spelling", ["parent", "absolute"])
def test_manifest_paths_stay_inside_the_corpus(key, spelling, tmp_path, capsys):
    # both spellings used to be read, and verify exited 0 on them
    from ardom.cli import main

    root = tmp_path / "corpus"
    (root / "modules").mkdir(parents=True)
    with open(os.path.join(CORPUS_ROOT, "ka2.alg"), encoding="utf-8") as fh:
        text = fh.read()
    for folder in (root, tmp_path):
        (folder / "ka2.alg").write_text(text)
        (folder / "s.mod").write_text("dims 1 0\n")
    # a path that passes through a subdirectory and back stays inside
    good = {"id": "x", "file": "ka2.alg", "known_indecomposables": ["modules/../s.mod"]}
    outside = {"file": "ka2.alg", "known_indecomposables": "s.mod"}[key]
    outside = "../" + outside if spelling == "parent" else str(tmp_path / outside)
    bad = dict(good, **{key: outside if key == "file" else [outside]})
    (root / "manifest.json").write_text(json.dumps({"entries": [bad]}))
    message = f"x: {key} must be a path inside the corpus directory, got {outside!r}"
    with pytest.raises(CorpusError, match=f"^{re.escape(message)}$"):
        load_corpus(str(root))
    assert main(["verify", "--suite", "main", str(root)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    (root / "manifest.json").write_text(json.dumps({"entries": [good]}))
    (entry,) = load_corpus(str(root))
    assert [m.dims for _, m in entry.load_known_indecomposables()] == [(1, 0)]


def test_the_shipped_manifest_paths_stay_inside_the_corpus(corpus):
    root = os.path.realpath(CORPUS_ROOT)
    for entry in corpus:
        for rel in (entry.file, *entry.known_indecomposables):
            path = os.path.realpath(os.path.join(entry.root, rel))
            assert os.path.commonpath([root, path]) == root and os.path.isfile(path), rel


def test_every_known_classification_label_loads(tmp_path):
    labels = '["auslander", "hereditary", "linear-an", "nakayama"]'
    (tmp_path / "manifest.json").write_text(
        f'{{"entries": [{{"id": "x", "file": "x.alg", "classification": {labels}}}]}}'
    )
    (entry,) = load_corpus(str(tmp_path))
    assert entry.classification == ("auslander", "hereditary", "linear-an", "nakayama")
    assert entry.known_indecomposables == ()


# ---------------------------------------------------------------------------
# the 14-dimensional endomorphism algebra, pinned to structure constants
# ---------------------------------------------------------------------------


def _nilpotent_shift(f, n):
    x = f.zeros(n, n)
    for i in range(n - 1):
        x[i, i + 1] = 1
    return x


def _hom_space(f, xi, xj):
    """Matrices F with X_i F = F X_j, via one linear system."""
    i, j = xi.shape[0], xj.shape[0]
    system = np.kron(xi, f.eye(j)) - np.kron(f.eye(i), xj.T)
    flats = f.kernel_basis(system % f.p)
    return [flat.reshape(i, j) for flat in flats]


def test_auslander_x3_presentation_matches_structure_constants(corpus):
    f = PrimeField(101)
    sizes = (1, 2, 3)
    shifts = [_nilpotent_shift(f, n) for n in sizes]

    # Hom(M_i, M_j) for the chain of uniserials M_i has dimension min(i, j)
    total = 0
    for i, xi in enumerate(shifts):
        for j, xj in enumerate(shifts):
            d = len(_hom_space(f, xi, xj))
            assert d == min(i + 1, j + 1)
            total += d
    assert total == 14

    # generators named as in the stored presentation
    a1 = np.array([[0, 1]], dtype=np.int64)
    a2 = np.array([[0, 1, 0], [0, 0, 1]], dtype=np.int64)
    b1 = np.array([[1], [0]], dtype=np.int64)
    b2 = np.array([[1, 0], [0, 1], [0, 0]], dtype=np.int64)
    for mat, (i, j) in [(a1, (0, 1)), (a2, (1, 2)), (b1, (1, 0)), (b2, (2, 1))]:
        assert np.array_equal(
            f.mul(shifts[i], mat), f.mul(mat, shifts[j])
        ), "generator does not commute with the x-action"

    # the stored relations, checked on the concrete maps
    assert not np.any(f.mul(a1, b1))
    assert np.array_equal(f.mul(b1, a1), f.mul(a2, b2))

    # the generators (with the idempotents) span all 14 dimensions
    elements = {(i, i): [f.eye(n)] for i, n in enumerate(sizes)}
    elements[(0, 1)] = [a1]
    elements[(1, 2)] = [a2]
    elements[(1, 0)] = [b1]
    elements[(2, 1)] = [b2]
    changed = True
    while changed:
        changed = False
        for (i, j), lefts in list(elements.items()):
            for (jj, k), rights in list(elements.items()):
                if jj != j:
                    continue
                bucket = elements.setdefault((i, k), [])
                for left in lefts:
                    for right in rights:
                        prod = f.mul(left, right)
                        if not np.any(prod):
                            continue
                        flat = prod.reshape(1, -1)
                        span = (
                            np.stack([b.reshape(-1) for b in bucket])
                            if bucket
                            else f.zeros(0, flat.shape[1])
                        )
                        if f.coords_in_rowspace(span, flat) is None:
                            bucket.append(prod)
                            changed = True
    spanned = sum(len(v) for v in elements.values())
    assert spanned == 14

    # and the stored presentation has the same dimension over the same quiver
    entry = {e.entry_id: e for e in corpus}["auslander-x3"]
    tbl = entry.load_table()
    assert tbl.dimension == 14
    assert tbl.quiver.vertices == ("v1", "v2", "v3")
    assert "gendo_symmetric" in tbl.flags


@pytest.mark.parametrize(
    "key, value",
    [
        ("dim", "0"),
        ("dim", "true"),
        ("dim", '"6"'),
        ("dim", "6.0"),
        ("selfinjective", "0"),
        ("selfinjective", '"false"'),
        ("domdim", '"banana"'),
        ("domdim", '{"kind": "exact"}'),
        ("domdim", '{"value": 2}'),
        ("domdim", "[1]"),
        ("gldim", '{"kind": "at_least", "value": -1}'),
        ("gldim", '{"kind": "exact", "value": 2.5}'),
        ("mueller", '{"kind": "infinite", "value": 3}'),
        ("gorenstein", '{"kind": "maybe", "value": 1}'),
        ("gorenstein", '{"kind": "exact", "value": true}'),
    ],
)
def test_expected_values_are_shape_checked(tmp_path, key, value):
    (tmp_path / "manifest.json").write_text(
        f'{{"entries": [{{"id": "x", "file": "x.alg", "expected": {{"{key}": {value}}}}}]}}'
    )
    with pytest.raises(CorpusError, match=f"^x: expected {key} must be"):
        load_corpus(str(tmp_path))


def test_well_shaped_expected_values_load(tmp_path):
    expected = (
        '{"dim": 1, "selfinjective": false, "domdim": {"kind": "infinite"}, '
        '"gldim": {"kind": "at_least", "value": 0}, "mueller": {"kind": "exact", "value": 0}}'
    )
    (tmp_path / "manifest.json").write_text(
        f'{{"entries": [{{"id": "x", "file": "x.alg", "expected": {expected}}}]}}'
    )
    (entry,) = load_corpus(str(tmp_path))
    assert entry.expected["gldim"] == {"kind": "at_least", "value": 0}


def test_verify_rejects_a_misshapen_expected_value(tmp_path, capsys):
    from ardom.cli import main
    from ardom.verify import EXIT_INPUT_ERROR

    with open(os.path.join(CORPUS_ROOT, "ka2.alg"), encoding="utf-8") as fh:
        (tmp_path / "ka2.alg").write_text(fh.read())
    (tmp_path / "manifest.json").write_text(
        '{"entries": [{"id": "ka2", "file": "ka2.alg", "expected": {"domdim": "banana"}}]}'
    )
    assert main(["verify", "--n", "1", str(tmp_path)]) == EXIT_INPUT_ERROR == 2
    assert capsys.readouterr().err.startswith("error: ka2: expected domdim must be")
