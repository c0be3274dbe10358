"""fcblab runs on numpy alone: no scipy module is loaded, and none is a dependency."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# Imports fcblab, solves a small SDP and extracts its witness, then prints the scipy modules loaded.
PROBE = """
import sys
import fcblab
prob = fcblab.build_fcb_sdp(fcblab.Polynomial(2, {(1, 2): 1.0}), 2)
sol = fcblab.solve_sdp(prob)
fcblab.verify_bb(fcblab.extract_witness(sol, prob), 1e-6)
print(sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy.")))
"""


def test_import_and_solve_load_no_scipy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True, env=env, timeout=120, check=True)
    assert out.stdout.strip() == "[]"


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert [re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in project["dependencies"]] == ["numpy"]
