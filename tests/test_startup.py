"""Start-up: the exact paths load neither mpmath nor a process pool.

mpmath serves only decimal output (CubicNum.evaluate, Monomial.value,
--digits) and the test oracle trace_numeric, so it is imported on first use.  The shards run in
one process, so multiprocessing and concurrent.futures stay unloaded.  These
tests run fresh interpreters, because the test process itself has long since
loaded all three.
"""

import os
import subprocess
import sys

import puresextic

SRC = os.path.dirname(os.path.dirname(puresextic.__file__))
LAZY = ("mpmath", "multiprocessing", "concurrent.futures")

GUARD = f"""
import importlib, pkgutil, sys
from fractions import Fraction as Fr
import puresextic
for mod in pkgutil.iter_modules(puresextic.__path__):
    if mod.name != "__main__":
        importlib.import_module("puresextic." + mod.name)
from puresextic.algebra import CubicNum
from puresextic.basis import build_basis
from puresextic.field import sextic_field
from puresextic.geometry import Box3
from puresextic.gram import gram6, shape_gram
from puresextic.harness import compare
from puresextic.types import SexticType

f = sextic_field(756)
b = build_basis(f)
assert gram6(f, b).det().is_rational()
assert shape_gram(f).certificate_holds()
assert all(e.is_algebraic_integer() for e in b.elements)
rep = compare("C", SexticType(1, 1), 1, Box3(1, 8, Fr(1, 8), 8, 1, 6, kind="C"),
              [10 ** 6, 10 ** 8])
assert [r["N"] for r in rep["rows"]] == [10 ** 6, 10 ** 8]
loaded = [m for m in {LAZY!r} if m in sys.modules]
assert not loaded, loaded

v = CubicNum.of(2, 1, 1, 0).evaluate(30)  # 1 + 2^(1/3)
assert "mpmath" in sys.modules
assert abs(v - 1 - 2 ** (1 / 3)) < 1e-15, v
"""


def _python(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          timeout=120, env=env)


def test_exact_paths_load_neither_mpmath_nor_the_process_pool():
    proc = _python("-c", GUARD)
    assert proc.returncode == 0, proc.stderr


def _imported(*argv: str) -> set[str]:
    """The modules `python -m puresextic *argv` imports, read from -X importtime."""
    proc = _python("-X", "importtime", "-m", "puresextic", *argv)
    assert proc.returncode == 0, proc.stderr
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


def test_cli_commands_without_digits_leave_mpmath_unloaded():
    for argv in (("classify", "--m", "5"), ("basis", "--m", "5")):
        assert not _imported(*argv) & set(LAZY), argv
    assert "mpmath" in _imported("gram", "--m", "2", "--digits", "12")


def test_importing_the_main_module_does_not_run_the_cli():
    """`import puresextic.__main__` (a pkgutil walk, say) leaves the importer's argv alone."""
    code = ("import sys; sys.argv = ['walker', '--no-such-flag']; "
            "import puresextic.__main__; print('ok')")
    proc = _python("-c", code)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "ok\n", "")
