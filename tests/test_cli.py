import json
import math
import os
import subprocess
import sys

import pytest

import puresextic
from puresextic import densities
from puresextic.basis import build_basis, derived_transition, tabulated_transition
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


BUILDERS = (build_basis, derived_transition, tabulated_transition)


def test_verify_builds_each_field_once(capsys):
    """One basis, one derived and one tabulated transition per field: the checks
    of a field, shape_gram's among them, share what the loop built (memo misses)."""
    for fn in BUILDERS:
        fn.cache_clear()
    code, out = run(capsys, "verify", "--types", "2,3", "--per-type", "3")
    assert code == 0 and "PASS A2,B3: 3/3" in out
    assert [fn.cache_info().misses for fn in BUILDERS] == [3, 3, 3]


def test_verify_memo_stays_bounded(capsys):
    """Over 60 distinct fields each memo holds at most its small bound."""
    for fn in BUILDERS:
        fn.cache_clear()
    code, _ = run(capsys, "verify", "--types", "all", "--per-type", "3")
    assert code == 0
    for fn in BUILDERS:
        info = fn.cache_info()
        assert info.misses == 60
        assert info.maxsize is not None and info.currsize <= info.maxsize <= 2


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


@pytest.mark.parametrize("n, m", [("6", "8"), ("4", "9"), ("6", "0"), ("4", "-4")])
def test_general_basis_rejects_reducible_x_n_minus_m(capsys, n, m):
    assert main(["general-basis", "--n", n, "--m", m]) == 1
    assert capsys.readouterr().err == f"error: x^{n} - ({m}) is reducible\n"


@pytest.mark.parametrize("n", ["1", "0", "-3"])
def test_general_basis_rejects_degree_below_2(capsys, n):
    assert main(["general-basis", "--n", n, "--m", "5"]) == 1
    assert capsys.readouterr().err == f"error: degree n={n} must be at least 2\n"


def test_partition_with_lo_above_hi_exit_2(capsys):
    assert main(["partition", "--lo", "5", "--hi", "1"]) == 2
    assert capsys.readouterr().err == "error: --lo 5 is above --hi 1\n"


def test_partition_above_the_range_limit_exit_1_fast(capsys):
    assert main(["partition", "--lo", "-1000000000", "--hi", "1000000000"]) == 1
    assert "above the partition limit" in capsys.readouterr().err


def test_partition_beyond_the_int64_bound_exit_1(capsys):
    assert main(["partition", "--lo", "1000000000000000000000",
                 "--hi", "1000000000000000000005"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "2^62" in err and "Traceback" not in err


def test_density_validate_with_a3_exit_2(capsys):
    assert main(["density", "--type", "1,1", "--a2", "1", "--a3", "1", "--a4", "1",
                 "--validate"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --validate checks the n-count only")


def test_density_of_a_triple_that_is_not_coprime_exit_1(capsys):
    assert main(["density", "--type", "1,1", "--a2", "2", "--a3", "2", "--a4", "1"]) == 1
    assert "must be coprime squarefree" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [("--digits", "-3", "shape", "--m", "32"),
                                  ("shape", "--m", "32", "--digits", "-3"),
                                  ("gram", "--m", "2", "--digits", "-1")],
                         ids=["before", "after", "gram"])
def test_negative_digits_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as e:
        main(list(argv))
    assert e.value.code == 2
    assert "is not a nonnegative integer; write it in digits" in capsys.readouterr().err


def test_zero_digits_means_no_decimals(capsys):
    code, out = run(capsys, "shape", "--m", "32", "--digits", "0")
    assert code == 0
    assert "decimal" not in json.loads(out)["lambdas"]


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


def run_module(*argv):
    """(exit code, stderr, seconds) of `python -m puresextic *argv` under a 60 s guard."""
    import time
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(puresextic.__file__)))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "puresextic", *argv],
                          capture_output=True, text=True, timeout=60, env=env)
    return proc.returncode, proc.stderr, time.perf_counter() - start


def test_equidist_beyond_the_coordinate_limit_exit_1_fast():
    """a5/a1 near 10^7: a handful of candidates, but a5 would overflow the sieve."""
    code, err, _ = run_module("equidist", "--family", "T", "--type", "1,1", "--sign", "+",
                              "--box", "10000000,10000001,1,6,1,3", "--ladder", str(10 ** 40),
                              "--prime-bound", "1000")
    assert code == 1
    assert err.startswith(f"error: N={10 ** 40} needs tuple coordinates up to ")
    assert "enumeration limit" in err and "Traceback" not in err


@pytest.mark.parametrize("family,box,N", [("T", "1,4,1,6,1,3", 10 ** 40),
                                         ("C", "1,8,1/8,8,1,6", 10 ** 50)], ids=["T", "C"])
def test_equidist_beyond_the_candidate_limit_exit_1_fast(family, box, N):
    """Coordinates under 10^6 (T: a5 <= 2 * 10^4) but ~7 * 10^7 (T) or ~9 * 10^9 (C)
    candidates in one shard: refused before they are expanded."""
    code, err, seconds = run_module("equidist", "--family", family, "--type", "1,1", "--sign",
                                    "+", "--box", box, "--ladder", str(N), "--prime-bound", "1000")
    assert seconds < 10
    assert code == 1
    assert err.startswith(f"error: N={N} needs ") and "candidates in one shard" in err
    assert "enumeration limit" in err and "Traceback" not in err


def test_equidist_beyond_the_c_walk_limit_exit_1_fast():
    """At N = 10^80 on the criterion-10 box the x1 walk of one a3-slice has ~10^8
    values: refused before it starts."""
    code, err, seconds = run_module("equidist", "--family", "C", "--type", "1,1", "--sign", "+",
                                    "--box", "1,8,1/8,8,1,6", "--ladder", str(10 ** 80))
    assert seconds < 10
    assert code == 1
    assert err.startswith(f"error: the region x1^5 x3^3 x5^5 <= {10 ** 80} needs more than")
    assert "walk limit" in err and "Traceback" not in err


@pytest.mark.parametrize("op,N", [("count", 10 ** 61), ("count2", 10 ** 30)],
                         ids=["count-1e61", "count2-1e30"])
def test_geometry_count_beyond_the_walk_limit_exit_1_fast(op, N):
    """The 3d walk at N = 10^61 has ~1.26 * 10^6 values of x1 (one x3), the 2d walk
    at 10^30 has 10^15: both are refused before they start."""
    code, err, seconds = run_module("geometry", op, "--N", str(N))
    assert seconds < 10
    assert code == 1
    assert err.startswith("error: the region") and "walk limit" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [("euler", "--bound", "0"), ("euler", "--bound", "-5"),
                                  ("measure", "--family", "C", "--type", "1,1",
                                   "--box", "1,8,1/8,8,1,6", "--prime-bound", "0"),
                                  ("equidist", "--family", "C", "--type", "1,1",
                                   "--box", "1,8,1/8,8,1,6", "--ladder", "1000",
                                   "--prime-bound", "-1"),
                                  ("geometry", "mc", "--samples", "0"),
                                  ("verify", "--per-type", "-1"), ("verify", "--per-type", "0"),
                                  ("density", "--type", "1,1", "--a2", "-3", "--a4", "1"),
                                  ("density", "--type", "1,1", "--a2", "1", "--a4", "0"),
                                  ("density", "--type", "1,1", "--a2", "1", "--a3", "-1",
                                   "--a4", "1")],
                         ids=["euler-0", "euler--5", "measure-0", "equidist--1", "mc-0",
                              "verify--1", "verify-0", "density-a2--3", "density-a4-0",
                              "density-a3--1"])
def test_count_option_that_is_not_positive_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as e:
        main(list(argv))
    assert e.value.code == 2
    assert "is not a positive integer; write it in digits" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_that_is_not_positive_exit_2(capsys, workers):
    with pytest.raises(SystemExit) as e:
        main(["--workers", workers, "equidist", "--family", "C", "--type", "1,1",
              "--box", "1,8,1/8,8,1,6", "--ladder", "1000000", "--prime-bound", "1000"])
    assert e.value.code == 2
    assert f"--workers: {workers!r} is not a positive integer; write it in digits" in \
        capsys.readouterr().err


def test_monte_carlo_without_a_hit_has_an_honest_interval(capsys):
    code, out = run(capsys, "geometry", "mc", "--samples", "1", "--N", "1000")
    assert code == 0
    data = json.loads(out)
    assert data["estimate"] == 0.0
    assert abs(data["estimate"] - data["exact"]) <= 2 * data["standard_error"]


@pytest.mark.parametrize("argv", [("geometry", "mc", "--L1p", "0", "--samples", "1000"),
                                  ("geometry", "mc", "--L2p", "0", "--samples", "1000")],
                         ids=["mc-L1p-0", "mc-L2p-0"])
def test_monte_carlo_on_an_unbounded_region_exit_1(capsys, argv):
    assert main(list(argv)) == 1
    assert capsys.readouterr().err.startswith("error: Monte Carlo needs a bounded region")


@pytest.mark.parametrize("argv", [("geometry", "area", "--L1p", "0"),
                                  ("geometry", "diagnose", "--L1p", "0", "--ladder", "1000")],
                         ids=["area", "diagnose"])
def test_area_with_no_lower_ratio_bound_is_infinite(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 0
    data = json.loads(out)
    assert (data["area"] if "area" in data else data["M2"][0]["volume"]) == math.inf


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
