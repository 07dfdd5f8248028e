"""The demos run from the repository root and print exactly what they did."""

import hashlib
import os
import subprocess
import sys

import pytest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))

# sha256 of each demo's stdout; a change that alters a demo's output must
# update its digest deliberately
DEMO_SHA256 = {
    "01_invariants_tour.py": "dc00460499b0e1dd4ee5f5156df127faaf0e60b1dfda20caff04e5b86bf77c7e",
    "02_almost_split_sequences.py": "fa7359549c54c73be23ffad9644b501d11ba2abf7ae3e65d2f32447908bdffee",
    "03_torsion_and_grades.py": "34ed42660581d8c8e1f5c3bb947d1fc09d863afd1f72d6c2352ffedc15c78fcd",
    "04_verification_harness.py": "b6c6ed5c184442b34e1ab3ef58c0fe0f4b100f13b99da42b56f48480413b201a",
}


def test_every_demo_is_pinned():
    assert sorted(f for f in os.listdir(os.path.join(ROOT, "demos")) if f.endswith(".py")) == sorted(
        DEMO_SHA256
    )


@pytest.mark.parametrize("name", sorted(DEMO_SHA256))
def test_demo_runs_with_its_pinned_output(name):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    run = subprocess.run(
        [sys.executable, os.path.join("demos", name)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr.decode()
    assert hashlib.sha256(run.stdout).hexdigest() == DEMO_SHA256[name]
