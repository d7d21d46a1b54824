import json
import math
import os
import subprocess
import sys

import pytest

import puresextic
from puresextic import densities
from puresextic.cli import main
from puresextic.field import is_prime


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_classify(capsys):
    code, out = run(capsys, "classify", "--m", "112")
    assert code == 0
    assert json.loads(out)["type"] == "A5,B1"


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as e:
        main(["classify"])  # missing --m
    assert e.value.code == 2


def test_basis_json_roundtrip(capsys):
    code, out = run(capsys, "basis", "--m", "17")
    assert code == 0
    data = json.loads(out)
    from fractions import Fraction as Fr
    coeffs = [Fr(int(c["num"]), int(c["den"])) for c in data["elements"][3]]
    assert coeffs == [Fr(1, 2), 0, 0, Fr(1, 2), 0, 0]


def test_shape_digits(capsys):
    code, out = run(capsys, "shape", "--m", "32", "--digits", "10")
    data = json.loads(out)
    assert data["lambdas"]["decimal"][0].startswith("1.58740105")


def test_gram_command(capsys):
    code, out = run(capsys, "gram", "--m", "2")
    data = json.loads(out)
    assert data["type"] == "A1,B1"
    assert data["gram"][0][0] == [{"num": "6", "den": "1"},
                                  {"num": "0", "den": "1"}, {"num": "0", "den": "1"}]


def test_verify_exit_codes(capsys):
    code, out = run(capsys, "verify", "--types", "3,2", "--per-type", "3")
    assert code == 0
    assert "PASS A3,B2: 3/3" in out


def test_partition_small(capsys):
    code, out = run(capsys, "partition", "--lo", "-2000", "--hi", "2000")
    assert code == 0
    assert json.loads(out)["violation_count"] == 0


def test_equidist_report_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, _ = run(capsys, "equidist", "--family", "C", "--type", "1,1", "--sign", "+",
                  "--box", "1,8,1/8,8,1,6", "--ladder", "1000000,100000000",
                  "--prime-bound", "10000", "--out", str(out_file))
    assert code == 0
    data = json.loads(out_file.read_text())
    assert data["rows"][0]["carefree_count"] == 5
    # the tool can re-verify its own report: counts re-derivable from the spec
    from fractions import Fraction as Fr
    from puresextic.geometry import Box3
    from puresextic.harness import EnumSpec, enumerate_C
    from puresextic.types import SexticType
    box = Box3(1, 8, Fr(1, 8), 8, 1, 6, kind="C")
    n = data["rows"][0]["N"]
    assert len(enumerate_C(EnumSpec(n, 1, SexticType(1, 1), box))) == \
        data["rows"][0]["carefree_count"]


def test_density_cache_dir(tmp_path, capsys):
    code, out = run(capsys, "--cache-dir", str(tmp_path), "density", "--type", "1,1",
                    "--a2", "1", "--a4", "1")
    assert code == 0
    count = json.loads(out)["count"]
    assert count == 371504185344
    files = list(tmp_path.glob("*.json"))
    assert files, "disk cache was not written"
    for f in files:
        payload = json.loads(f.read_text())
        assert payload["kernel"] == densities.kernel_version()
        assert payload["modulus"] in (64, 243)


def test_euler_command(capsys):
    code, out = run(capsys, "euler", "--kind", "basic", "--bound", "100000")
    data = json.loads(out)
    assert abs(data["value"] - 0.911891) < 1e-4
    assert data["tail_bound"] < 1e-4


def test_measure_command(capsys):
    code, out = run(capsys, "measure", "--family", "T", "--type", "1,1",
                    "--box", "1,4,1,6,1,3", "--prime-bound", "10000")
    data = json.loads(out)
    assert "discrete_strict" in data["variants"]


def test_invalid_m_exit_1(capsys):
    assert main(["basis", "--m", "64"]) == 1


@pytest.mark.parametrize("m", ["31250", "4"])  # 2 * 5^6; a square
def test_classify_rejects_m_without_a_pure_sextic_field(capsys, m):
    assert main(["classify", "--m", m]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("cmd", ["gram", "shape"])
def test_digits_before_or_after_the_subcommand(capsys, cmd):
    _, before = run(capsys, "--digits", "12", cmd, "--m", "2")
    _, after = run(capsys, cmd, "--m", "2", "--digits", "12")
    assert before == after
    data = json.loads(before)
    assert data["config"]["digits"] == 12
    assert "gram_decimal" in data if cmd == "gram" else data["lambdas"]["decimal"]


def test_basis_of_an_843_digit_m(capsys):
    m = math.prod(p for p in range(2, 2000) if is_prime(p))
    assert len(str(m)) == 843
    code, out = run(capsys, "basis", "--m", str(m))
    assert code == 0
    assert json.loads(out)["C"] == [1, 1, 1, 1, 1]


@pytest.mark.parametrize("m", ["1", "-1"])
def test_general_basis_rejects_unit_m(capsys, m):
    assert main(["general-basis", "--n", "6", "--m", m]) == 1
    assert "reducible" in capsys.readouterr().err


def test_fractional_t_box_exit_1(capsys):
    code = main(["equidist", "--family", "T", "--type", "1,1", "--box", "1,4,3/2,6,1,3",
                 "--ladder", "10000000", "--prime-bound", "1000"])
    assert code == 1
    assert "integer" in capsys.readouterr().err


def test_unfactorable_m_exit_1_fast():
    """A semiprime of two 25-digit primes exhausts the rho budget instead of hanging."""
    def next_prime(n):
        while not is_prime(n):
            n += 1
        return n
    m = next_prime(10 ** 24) * next_prime(2 * 10 ** 24)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(puresextic.__file__)))
    proc = subprocess.run([sys.executable, "-m", "puresextic", "classify", "--m", str(m)],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: cannot factor")


def test_equidist_beyond_the_coordinate_limit_exit_1_fast():
    """A ladder point whose tuple coordinates would overflow the sieve fails before enumerating."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(puresextic.__file__)))
    proc = subprocess.run([sys.executable, "-m", "puresextic", "equidist", "--family", "T",
                           "--type", "1,1", "--sign", "+", "--box", "1,4,1,6,1,3",
                           "--ladder", str(10 ** 40), "--prime-bound", "1000"],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: N={10 ** 40} needs tuple coordinates")
    assert "Traceback" not in proc.stderr


def test_equidist_beyond_the_c_walk_limit_exit_1_fast():
    """At N = 10^50 on the criterion-10 box every coordinate is under the coordinate
    limit, but the (a1, a5) walk has ~10^10 pairs: refused before it starts."""
    import time
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(puresextic.__file__)))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "puresextic", "equidist", "--family", "C",
                           "--type", "1,1", "--sign", "+", "--box", "1,8,1/8,8,1,6",
                           "--ladder", str(10 ** 50)],
                          capture_output=True, text=True, timeout=60, env=env)
    assert time.perf_counter() - start < 10
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: the region x1^5 x3^3 x5^5 <= {10 ** 50} needs more than")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("op,N", [("count", 10 ** 39), ("count2", 10 ** 30)],
                         ids=["count-1e39", "count2-1e30"])
def test_geometry_count_beyond_the_walk_limit_exit_1_fast(op, N):
    """The 3d walk at N = 10^39 has ~10^7 (x1, x5) pairs, the 2d walk at 10^30 has
    10^15 values of x1: both are refused before they start."""
    import time
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(puresextic.__file__)))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "puresextic", "geometry", op, "--N", str(N)],
                          capture_output=True, text=True, timeout=60, env=env)
    assert time.perf_counter() - start < 10
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: the region") and "walk limit" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("entry", ["0", "-5", "10^50", "1e20"])
@pytest.mark.parametrize("cmd", [("geometry", "diagnose"),
                                 ("equidist", "--family", "C", "--type", "1,1",
                                  "--box", "1,8,1/8,8,1,6")], ids=["diagnose", "equidist"])
def test_ladder_entry_that_is_not_positive_digits_exit_2(capsys, cmd, entry):
    with pytest.raises(SystemExit) as e:
        main([*cmd, "--ladder", entry])
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert f"ladder entry {entry!r}" in err and "digits" in err


def test_corrupt_cache_file_is_a_miss(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(densities, "_cache_dir", None)  # main() sets it; restore afterwards
    argv = ["measure", "--family", "C", "--type", "1,1", "--box", "1,8,1/8,8,1,6"]
    code, plain = run(capsys, *argv)
    (tmp_path / "n2_1_p.json").write_text("garbage{")
    code_cached, cached = run(capsys, "--cache-dir", str(tmp_path), *argv)
    assert code == code_cached == 0
    plain, cached = json.loads(plain), json.loads(cached)
    assert cached.pop("config")["cache_dir"] == str(tmp_path)
    plain.pop("config")
    assert cached == plain
    payload = json.loads((tmp_path / "n2_1_p.json").read_text())
    assert payload["kernel"] == densities.kernel_version()
