"""The built-in property suite and the command line, run from pytest.

``verify.ALL_CHECKS`` is the one home of the desk-scale invariants, and
``test_check_passes`` runs each of them at the ``verify`` seed.  Every
check has a mutation of the program that fails it, named in
test_mutations.py's ``VERIFY_MUTATIONS``; a check that holds for any input
of the code it calls does not belong in the suite.  Unit tests elsewhere
keep edge cases, worked values and error paths; one named after an
invariant only runs its check, at a second seed where the check draws
random inputs.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import rkhs_invlab
from rkhs_invlab import verify

SEED = 20260809  # the default seed of ``rkhs-invlab verify``


@pytest.mark.parametrize("check", verify.ALL_CHECKS,
                         ids=lambda check: check.__name__)
def test_check_passes(check):
    result = check(SEED)
    assert result.passed, f"{result.name}: {result.detail}"


def test_python_m_verify_exits_zero():
    src = str(Path(rkhs_invlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "rkhs_invlab", "verify"],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == (
        f"VERIFY pass ({len(verify.ALL_CHECKS)}/{len(verify.ALL_CHECKS)} "
        "checks)")
