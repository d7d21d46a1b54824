import dataclasses
import json
import math
import os
import subprocess
import sys

import pytest

import puresextic
from puresextic import gram
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


def break_the_certificate(monkeypatch):
    """shape_gram reads C' off a derived transition whose entry [5][5] is one too big."""
    real = gram.derived_transition

    def perturbed(b):
        p = real(b)
        rows = [list(row) for row in p.entries]
        rows[5][5] += 1
        return dataclasses.replace(p, entries=tuple(map(tuple, rows)))

    monkeypatch.setattr(gram, "derived_transition", perturbed)


def test_verify_reports_a_failed_certificate_exit_1(capsys, monkeypatch):
    break_the_certificate(monkeypatch)
    code, out = run(capsys, "verify", "--types", "1,1", "--per-type", "1")
    assert code == 1
    assert "FAIL A1,B1: 0/1" in out
    failures = json.loads(out[out.index("["):])
    assert ["certificate" in f["failed"] for f in failures] == [True]


def test_shape_with_a_failed_certificate_exit_1(capsys, monkeypatch):
    break_the_certificate(monkeypatch)
    assert main(["shape", "--m", "32"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: the shape certificate fails for m=32")
    assert "Traceback" not in err


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
                  "--out", str(out_file))
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


def test_density_count_at_a2_1_a4_1(capsys):
    code, out = run(capsys, "density", "--type", "1,1", "--a2", "1", "--a4", "1")
    assert code == 0
    assert json.loads(out)["count"] == 371504185344


def test_cache_dir_is_an_unknown_option(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--cache-dir", "x", "classify", "--m", "2"])
    assert e.value.code == 2
    usage, said = capsys.readouterr().err.split("error:")
    assert "--cache-dir" not in usage  # the usage line no longer lists it
    assert BEFORE.format("--cache-dir") == "error:" + said.rstrip("\n")


def test_puresextic_cache_in_the_environment_changes_nothing(tmp_path):
    """The density counts are memoised in the process only: the variable that
    once named a disk cache neither changes the output nor creates a directory."""
    cache = tmp_path / "cache"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(puresextic.__file__)))
    env.pop("PURESEXTIC_CACHE", None)
    argv = [sys.executable, "-m", "puresextic", "measure", "--family", "C", "--type", "1,1",
            "--box", "1,8,1/8,8,1,6"]
    plain = subprocess.run(argv, capture_output=True, timeout=60, env=env)
    with_env = subprocess.run(argv, capture_output=True, timeout=60,
                              env=dict(env, PURESEXTIC_CACHE=str(cache)))
    assert plain.returncode == with_env.returncode == 0
    assert with_env.stdout == plain.stdout
    assert not cache.exists()


def test_euler_command(capsys):
    code, out = run(capsys, "euler", "--kind", "basic")
    data = json.loads(out)
    assert abs(data["value"] - 0.911891) < 1e-4
    assert data["tail_bound"] < 1e-4


def test_measure_command(capsys):
    code, out = run(capsys, "measure", "--family", "T", "--type", "1,1",
                    "--box", "1,4,1,6,1,3")
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
    """--digits belongs to gram and shape: before the subcommand it is a usage
    error that names the flag."""
    with pytest.raises(SystemExit) as e:
        main(["--digits", "12", cmd, "--m", "2"])
    assert e.value.code == 2
    assert BEFORE.format("--digits") in capsys.readouterr().err
    _, after = run(capsys, cmd, "--m", "2", "--digits", "12")
    data = json.loads(after)
    assert "config" not in data
    assert "gram_decimal" in data if cmd == "gram" else data["lambdas"]["decimal"]


# A cheap run of each command, and of each geometry op that diagnose's rows
# replaced (GONE).  Before each option moved to the command that reads it, every
# run below exited 0 with one more flag that it took and never read: a global
# flag before the command, or a geometry flag.  Since the GONE ops were deleted,
# each of their runs is an invalid choice of op, whatever flag follows it.
CHEAP = {"classify": "--m 5", "basis": "--m 17", "general-basis": "--n 4 --m 5",
         "gram": "--m 2", "shape": "--m 32", "density": "--type 1,1 --a2 1 --a4 1",
         "euler": "--kind basic",
         "measure": "--family T --type 1,1 --box 1,4,1,6,1,3",
         "equidist": "--family C --type 1,1 --box 1,8,1/8,8,1,6 --ladder 1000000",
         "verify": "--types 1,1 --per-type 1", "partition": "--lo -10 --hi 10",
         "geometry volume": "", "geometry count": "", "geometry area": "",
         "geometry count2": "", "geometry mc": "--samples 1000",
         "geometry diagnose": "--ladder 1000000 --csv"}
GONE = ("geometry volume", "geometry count", "geometry area", "geometry count2", "geometry mc")
GLOBAL_READERS = {"--digits 3": ("gram", "shape"), "--seed 1": (),
                  "--format pretty": tuple(c for c in CHEAP if c not in
                                           ("equidist", "verify", "geometry diagnose"))}
_M3_UNREAD = ["--samples 5", "--ladder 1000", "--csv"]
_M2_UNREAD = ["--L2p 1/2", "--L2 3", *_M3_UNREAD]
GEOMETRY_UNREAD = {"geometry volume": _M3_UNREAD, "geometry count": _M3_UNREAD,
                   "geometry area": _M2_UNREAD, "geometry count2": _M2_UNREAD,
                   "geometry mc": ["--ladder 1000", "--csv"],
                   "geometry diagnose": ["--N 10", "--samples 5"]}
BEFORE = "error: {} is given before a command: flags go after their command"
UNREAD = ([(f"{flag} {cmd} {CHEAP[cmd]}", BEFORE.format(flag.split()[0]))
           for flag, readers in GLOBAL_READERS.items() for cmd in CHEAP if cmd not in readers]
          + [(f"{cmd} {CHEAP[cmd]} {flag}", f"invalid choice: {cmd.split()[1]!r}" if cmd in GONE
              else f"unrecognized arguments: {flag}")
             for cmd, flags in GEOMETRY_UNREAD.items() for flag in flags])


@pytest.mark.parametrize("argv, said", UNREAD, ids=[argv for argv, _ in UNREAD])
def test_a_flag_the_command_does_not_read_exit_2(capsys, argv, said):
    """Before the command a flag is named as given there; after it, the flag is
    unrecognized, and after a deleted geometry op the op is."""
    with pytest.raises(SystemExit) as e:
        main(argv.split())
    assert e.value.code == 2
    assert said in capsys.readouterr().err


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


def test_general_basis_outside_its_assumptions_exit_1(capsys):
    """m = 12 has v_2(m) = 2, which shares a factor with n = 6: refused like
    every other invalid input, on stderr, with nothing on stdout."""
    assert main(["general-basis", "--n", "6", "--m", "12"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: v_2(m)=2 shares a factor with 2\n"


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
    """The direct mod-15552 count is a test oracle: --validate is no flag, with
    --a3 or without."""
    for a3 in (["--a3", "1"], []):
        with pytest.raises(SystemExit) as e:
            main(["density", "--type", "1,1", "--a2", "1", *a3, "--a4", "1", "--validate"])
        assert e.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --validate" in captured.err


def test_density_of_a_triple_that_is_not_coprime_exit_1(capsys):
    assert main(["density", "--type", "1,1", "--a2", "2", "--a3", "2", "--a4", "1"]) == 1
    assert "must be coprime squarefree" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [("shape", "--m", "32", "--digits", "-3"),
                                  ("gram", "--m", "2", "--digits", "-1")],
                         ids=["after", "gram"])
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
                 "--ladder", "10000000"])
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


def test_a_flag_before_its_command_is_named():
    """Apart from its value, a flag before the command names itself, not its value;
    with "=" or after the command, argparse calls it unrecognized."""
    code, err, _ = run_module("--seed", "1", "classify", "--m", "5")
    assert code == 2
    assert BEFORE.format("--seed") in err and "invalid choice" not in err
    assert "Traceback" not in err
    for argv in (["--seed=1", "classify", "--m", "5"], ["classify", "--m", "5", "--seed", "1"]):
        code, err, _ = run_module(*argv)
        assert code == 2 and "unrecognized arguments: --seed" in err and "Traceback" not in err


def test_equidist_beyond_the_coordinate_limit_exit_1_fast():
    """a5/a1 near 10^7: a handful of candidates, but a5 would overflow the sieve."""
    code, err, _ = run_module("equidist", "--family", "T", "--type", "1,1", "--sign", "+",
                              "--box", "10000000,10000001,1,6,1,3", "--ladder", str(10 ** 40))
    assert code == 1
    assert err.startswith(f"error: N={10 ** 40} needs tuple coordinates up to ")
    assert "enumeration limit" in err and "Traceback" not in err


def test_equidist_top_rung_beyond_the_coordinate_limit_exit_1_fast():
    """The ladder is enumerated at its largest N first: a top rung over the limit
    is refused before the lower rung is counted."""
    code, err, seconds = run_module("equidist", "--family", "T", "--type", "1,1", "--sign", "+",
                                    "--box", "10000000,10000001,1,6,1,3",
                                    "--ladder", f"1000000,{10 ** 40}")
    assert seconds < 10
    assert code == 1
    assert err.startswith(f"error: N={10 ** 40} needs tuple coordinates")
    assert "Traceback" not in err


@pytest.mark.parametrize("family,box,N", [("T", "1,4,1,6,1,3", 10 ** 40),
                                         ("C", "1,8,1/8,8,1,6", 10 ** 50)], ids=["T", "C"])
def test_equidist_beyond_the_candidate_limit_exit_1_fast(family, box, N):
    """Coordinates under 10^6 (T: a5 <= 2 * 10^4) but ~7 * 10^7 (T) or ~9 * 10^9 (C)
    candidates in one shard: refused before they are expanded."""
    code, err, seconds = run_module("equidist", "--family", family, "--type", "1,1", "--sign",
                                    "+", "--box", box, "--ladder", str(N))
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


@pytest.mark.parametrize("argv", [
    ("measure", "--family", "T", "--box", "1,4,1,6,1,10000000000"),
    ("equidist", "--family", "T", "--box", "1,4,1,6,1,10000000000", "--ladder", "1000000"),
    ("measure", "--family", "C", "--box", f"1,{10 ** 60},1/8,8,1,6"),
    ("measure", "--family", "C", "--box", f"1,8,1/8,8,1,{10 ** 12}"),
    ("measure", "--family", "C", "--box", "1,1,1,1,1,1000000"),
    ("measure", "--family", "C", "--box", "1,8,1/8,8,1,1000000"),
    ("measure", "--family", "C", "--box", f"1,8,1/8,8,{10 ** 20},{10 ** 20}"),
    ("measure", "--family", "C", "--box", f"1,8,1/8,8,{10 ** 12},{10 ** 12 + 5}"),
], ids=["T-measure", "T-equidist", "C-measure-R1", "C-measure-R3", "C-measure-pairs",
        "C-measure-pairs-criterion-10", "C-measure-narrow-1e20", "C-measure-narrow-1e12"])
def test_a_box_of_too_many_cells_exit_1_fast(argv):
    """10^10 values of a3, about 10^10 of x3 (lambda1^3 up to 10^60), 10^12 of a2*a4,
    about 1.4 * 10^7 (a2, a4) pairs, or a few a2*a4 near 10^20 or 10^12 whose
    pairs hold about 10^10 or 10^6 cells: the box's cells are refused before the
    predictions or counts start."""
    code, err, seconds = run_module(*argv, "--type", "1,1")
    assert seconds < 10
    assert code == 1
    box = argv[argv.index("--box") + 1]
    assert err.startswith(f"error: the {argv[2]} box {box} needs more than ")
    assert "walk limit" in err and "Traceback" not in err


def test_a_narrow_box_of_large_a2a4_runs_fast():
    """a2*a4 = 10^20 alone: its 441 (a2, a4) pairs are walked, not the sqrt(10^20)
    steps of an exact pair count up to 10^20."""
    code, err, seconds = run_module("measure", "--family", "T", "--type", "1,1", "--box",
                                    f"1,4,{10 ** 20},{10 ** 20},1,3")
    assert seconds < 10
    assert code == 0 and err == ""


RATIONAL = "is not a rational p/q with q nonzero and |p/q| within float range"
WALK = "needs more than 1000000 {}, above the walk limit"
# Inputs that ended in a traceback (a range too long for len(), a zero denominator,
# a value past float range, an --out in a missing directory), a value whose float
# underflows to 0 (once read as no bound), and the walk-limit refusals of the 3d
# and 2d regions: each exits 1 (invalid input) or 2 (usage) with an error line
# that says what was wrong.  {dir} is a missing directory.
FAIL_FAST = {
    "equidist-a3-range": (f"equidist --family C --type 1,1 --box 1,8,1/{10 ** 60},8,1,6 "
                          "--ladder 1000", 1, f"error: the C box 1,8,1/{10 ** 60},8,1,6 "
                          + WALK.format("(a2, a4) pairs and cells")),
    "measure-a3-range": (f"measure --family T --type 1,1 --box 1,4,1,6,1,{10 ** 60}", 1,
                         f"error: the T box 1,4,1,6,1,{10 ** 60} "
                         + WALK.format("(a2, a4) pairs and cells")),
    "diagnose-x3-range": (f"geometry diagnose --ladder {10 ** 200} --L2p 1/{10 ** 120}", 1,
                          f"error: the region x1^5 x3^3 x5^5 <= {10 ** 200} "
                          + WALK.format("values of x3 and x1")),
    "diagnose-zero-denominator": ("geometry diagnose --L1 1/0", 2,
                                  f"error: argument --L1: '1/0' {RATIONAL}"),
    "box-zero-denominator": ("equidist --family C --type 1,1 --box 1,8,1/0,8,1,6 --ladder 1000",
                             1, f"error: '1/0' {RATIONAL}"),
    "diagnose-past-float": ("geometry diagnose --L1 1e400", 2,
                            f"error: argument --L1: '1e400' {RATIONAL}"),
    "diagnose-underflow": ("geometry diagnose --L1p 1e-400 --ladder 1000 --csv", 2,
                           f"error: argument --L1p: '1e-400' {RATIONAL}"),
    "box-past-float": ("measure --family T --type 1,1 --box 1,1e400,1,6,1,3", 1,
                       f"error: '1e400' {RATIONAL}"),
    "equidist-out-missing-dir": ("equidist --family C --type 1,1 --box 1,8,1/8,8,1,6 "
                                 "--ladder 1000000 --out {dir}/x.json", 1,
                                 "error: [Errno 2] No such file or directory: '{dir}/x.json'"),
    "diagnose-3d-walk-1e61": (f"geometry diagnose --ladder {10 ** 61}", 1,
                              f"error: the region x1^5 x3^3 x5^5 <= {10 ** 61} "
                              + WALK.format("values of x3 and x1")),
    "diagnose-2d-walk-1e30": (f"geometry diagnose --ladder {10 ** 30}", 1,
                              f"error: the region x1 x5 <= {10 ** 30} "
                              + WALK.format("values of x1")),
}


@pytest.mark.parametrize("argv, code, said", FAIL_FAST.values(), ids=FAIL_FAST)
def test_bad_input_fails_fast_with_an_error_line(tmp_path, argv, code, said):
    """A fresh interpreter under a 10 s timeout: the refusal comes before any long
    walk, and no traceback reaches stderr."""
    missing = tmp_path / "missing"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(puresextic.__file__)))
    proc = subprocess.run([sys.executable, "-m", "puresextic",
                           *argv.format(dir=missing).split()],
                          capture_output=True, text=True, timeout=10, env=env)
    assert proc.returncode == code
    assert said.format(dir=missing) in proc.stderr.splitlines()[-1]
    assert "Traceback" not in proc.stderr


NOT_POSITIVE = "is not a positive integer; write it in digits"


@pytest.mark.parametrize("argv, said",
                         [(("euler", "--bound", "0"), "unrecognized arguments: --bound 0"),
                          (("euler", "--bound", "-5"), "unrecognized arguments: --bound -5"),
                          (("measure", "--family", "C", "--type", "1,1",
                            "--box", "1,8,1/8,8,1,6", "--prime-bound", "0"),
                           "unrecognized arguments: --prime-bound 0"),
                          (("equidist", "--family", "C", "--type", "1,1",
                            "--box", "1,8,1/8,8,1,6", "--ladder", "1000", "--prime-bound", "-1"),
                           "unrecognized arguments: --prime-bound -1"),
                          (("verify", "--per-type", "-1"), NOT_POSITIVE),
                          (("verify", "--per-type", "0"), NOT_POSITIVE),
                          (("density", "--type", "1,1", "--a2", "-3", "--a4", "1"), NOT_POSITIVE),
                          (("density", "--type", "1,1", "--a2", "1", "--a4", "0"), NOT_POSITIVE),
                          (("density", "--type", "1,1", "--a2", "1", "--a3", "-1", "--a4", "1"),
                           NOT_POSITIVE)],
                         ids=["euler-0", "euler--5", "measure-0", "equidist--1",
                              "verify--1", "verify-0", "density-a2--3", "density-a4-0",
                              "density-a3--1"])
def test_count_option_that_is_not_positive_exit_2(capsys, argv, said):
    """A count below 1 is a usage error.  The Euler products are constants, so the
    prime bound that euler --bound and --prime-bound once set is no flag at all."""
    with pytest.raises(SystemExit) as e:
        main(list(argv))
    assert e.value.code == 2
    assert said in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_that_is_not_positive_exit_2(capsys, workers):
    """The shards run in one process: --workers is no flag, whatever its value."""
    rest = ["equidist", "--family", "C", "--type", "1,1", "--box", "1,8,1/8,8,1,6",
            "--ladder", "1000000"]
    for flag, said in ((["--workers", workers], BEFORE.format("--workers")),
                       ([f"--workers={workers}"], f"unrecognized arguments: --workers={workers}")):
        with pytest.raises(SystemExit) as e:
            main(flag + rest)
        assert e.value.code == 2
        assert said in capsys.readouterr().err


@pytest.mark.parametrize("argv, limit",
                         [(("verify", "--types", "all", "--per-type", "1000000"),
                           "corpus limit 1000"),
                          (("general-basis", "--n", "1000000", "--m", "5"),
                           "degree limit 500")],
                         ids=["verify-per-type", "general-basis-degree"])
def test_input_above_a_limit_fails_fast_exit_1(argv, limit):
    """A fresh interpreter, so no warm cache hides the cost of an input past the limit."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(puresextic.__file__)))
    proc = subprocess.run([sys.executable, "-m", "puresextic", *argv], capture_output=True,
                          text=True, timeout=10, env=env)
    assert proc.returncode == 1
    assert any(line.startswith("error: ") and limit in line for line in proc.stderr.splitlines())
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("N, column", [("1000000", "discrete_term"), ("1000", "volume")],
                         ids=["area", "diagnose"])
def test_area_with_no_lower_ratio_bound_is_infinite(capsys, N, column):
    """The 2d row's volume is the area, and so is its discrete term (the area
    `geometry area` printed at its default N = 10^6)."""
    code, out = run(capsys, "geometry", "diagnose", "--L1p", "0", "--ladder", N)
    assert code == 0
    assert json.loads(out)["M2"][0][column] == math.inf


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
