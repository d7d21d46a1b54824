"""Golden CLI outputs: the SHA-256 of stdout for a few exact-output commands.

The gram, shape and verify digests were recorded before the Gram layer moved to
integer matrices; the geometry and equidist digests before the enumeration and
the raw counts moved onto geometry's window kernels; the partition, density and
measure digests before the Type rule became one table mod 15552.  So a change of
internal representation that alters a single byte of the output (a denominator,
an ordering, a decimal, a count) fails here.  When an output change is
intended, record the new digest in the same change that makes it, by a rule
that rebuilds it from the old stdout:

- JSON outputs lost their `config` echo (first its `cache_dir` line, then its
  `workers` key, then the whole echo when the global flags went).  Each time
  the digests were re-recorded by one rule: the old stdout through json.loads,
  the key deleted, then json.dumps(obj, indent=2, sort_keys=True, default=str)
  + "\n" (the rule gives the old stdout back byte for byte when nothing is
  deleted).
- `geometry diagnose --csv` renamed its header column `main_term` to `volume`,
  the value it always printed there, and gained a last column
  `discrete_term`: the old header renamed, the new column appended to each row.
- `verify` echoes no config and prints no new column; its digest never changed.
- The `euler` digests were recorded while the products were still sieved to the
  default bound 10^6, before they became literals and the bound a constant.
- `geometry count` and `count2`, which printed one count each, were deleted;
  `geometry diagnose` prints the same count in its M3 and M2 rows.  Their
  digests stay as recorded and are checked on the old stdout rebuilt from a
  one-rung diagnose row: json.dumps({"count": row.count}, indent=2,
  sort_keys=True) + "\n".
"""

import hashlib
import json

import pytest

from puresextic.cli import main

GOLDEN = {
    ("gram", "--m", "2", "--digits", "12"):
        "f84ee4e527ef02f02ff1a1d65613f07f23f4497547126c5f21fdb72b8de9b00b",
    ("gram", "--m", "-44"):
        "b01f99ddb1f48a198263409895ec94d6edcf772da9d72c6597cea078f739e114",
    ("shape", "--m", "32", "--digits", "10"):
        "e5a3f4473d23c346cead824a5de3b753f1b7b59d2d4716c2bf31ed31b299c287",
    ("shape", "--m", "8775"):
        "daa55d710ac09984be9528e6a02130d0aec672fb5fb11a656d40ac55fcbafff9",
    ("verify", "--types", "all", "--per-type", "5"):
        "c49ff824a0a341358966a674a644bd98aa2f20188cbbf2b177c63940674b795d",
    ("geometry", "diagnose", "--ladder", "1000000,100000000", "--csv"):
        "f1eb1f8e51783789e9b65d2ccf948b98a69dedcbd9447b99110680deffc7f754",
    ("equidist", "--family", "C", "--type", "1,1", "--sign", "+", "--box", "1,8,1/8,8,1,6",
     "--ladder", "1000000000,1000000000000"):
        "2db53b21f3dc45c6e983451f842b92c28b26666b2e4caf59affe1728091b1797",
    ("equidist", "--family", "T", "--type", "1,1", "--sign", "+", "--box", "1,4,1,6,1,3",
     "--ladder", "1000000000,1000000000000"):
        "ab221615d8e8900f1f760d63dc14a821328b99fc0ff7045d66f27c4a60af820c",
    ("partition", "--lo", "-1000000", "--hi", "1000000"):
        "3c71301835b544c377d470123947925591b0ef0727661505f1dfcdf07cc06eaa",
    ("density", "--type", "2,2", "--a2", "1", "--a3", "7", "--a4", "2"):
        "c3aca064ab0078bd90eb399ea9824fbba3c6522efdb825a87116a5cbb18b3c57",
    ("measure", "--family", "C", "--type", "3,2", "--sign", "-", "--box", "1,8,1/8,8,1,6"):
        "d1d5195f0a4e2e1ed30553d05eda8db52d728698026537ec35cdbc197eefec11",
    ("euler", "--kind", "carefree"):
        "9587afee794964c0939df4b3c42d897e7dd776a85186cfdf3f4e234b08990b3e",
    ("euler", "--kind", "basic"):
        "1e0e8cf8a333bd1cbbf226161fcfd10c174ccf0a306f0a79f481b4c772a12057",
    ("euler", "--kind", "carefree_strict"):
        "f4e77f61f2375bc893c0cd0ff34c8ee2f3883b23d730bc997de64f32d6564802",
}


@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_cli_output_matches_the_recorded_digest(argv, capsys):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[argv]


# (diagnose argv, the row kind that holds the count, digest): the deleted
# `geometry count --N 100000` and `geometry count2 --N 500 --L1p 1/3 --L1 7`
COUNT_GOLDEN = [
    (("geometry", "diagnose", "--ladder", "100000"), "M3",
     "d8414cb6c0ff664926cfee385bb5589464c953ae716862363bfcc0759f125151"),
    (("geometry", "diagnose", "--ladder", "500", "--L1p", "1/3", "--L1", "7"), "M2",
     "e5a55c5ed6ce8ad2d530771c62c7091a6999d97d1e62d9aa862451dcc0662f41"),
]


@pytest.mark.parametrize("argv, kind, digest", COUNT_GOLDEN,
                         ids=[" ".join(argv) for argv, _, _ in COUNT_GOLDEN])
def test_diagnose_count_matches_the_recorded_digest(argv, kind, digest, capsys):
    assert main(list(argv)) == 0
    row, = json.loads(capsys.readouterr().out)[kind]
    out = json.dumps({"count": row["count"]}, indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(out.encode()).hexdigest() == digest
