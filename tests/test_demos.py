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
    "01_invariants_tour.py": "7e1ff5d1f58bf15cb90cabe1990ec578149bce55079e17cbba9c1651465b28d0",
    "02_almost_split_sequences.py": "fa7359549c54c73be23ffad9644b501d11ba2abf7ae3e65d2f32447908bdffee",
    "03_torsion_and_grades.py": "34ed42660581d8c8e1f5c3bb947d1fc09d863afd1f72d6c2352ffedc15c78fcd",
    "04_verification_harness.py": "5478a4d63b99f65196033f4ec7e14b8dc707b68ed996a4221da2a06cb4c1b518",
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
