"""Golden CLI outputs: the SHA-256 of stdout for a few exact-output commands.

The gram, shape and verify digests were recorded before the Gram layer moved to
integer matrices; the geometry and equidist digests before the enumeration and
the raw counts moved onto geometry's window kernels; the partition, density and
measure digests before the Type rule became one table mod 15552.  So a change of
internal representation that alters a single byte of the output (a denominator,
an ordering, a decimal, a count) fails here.  When an output change is
intended, record the new digest in the same change that makes it.
"""

import hashlib

import pytest

from puresextic.cli import main

GOLDEN = {
    ("gram", "--m", "2", "--digits", "12"):
        "621f605cc77ac22a00e1f542940485c51c52d64dc258a1f758e12ec719b93d9f",
    ("gram", "--m", "-44"):
        "4e2322424ff47cce6bee6500ec2d420f88635016e561f587478e21a2d514127a",
    ("shape", "--m", "32", "--digits", "10"):
        "36f42a87d64c622ac48e53db0f5782b444463e643e24a555f418e6bf784cd62e",
    ("shape", "--m", "8775"):
        "63d02f3c0a355a16f43370b23f88f7444cef147183ad28c0d58ed8808d9706bd",
    ("verify", "--types", "all", "--per-type", "5"):
        "c49ff824a0a341358966a674a644bd98aa2f20188cbbf2b177c63940674b795d",
    ("geometry", "count", "--N", "100000"):
        "a96f2bc09fcf0c5e5f9d1f8d35b30cdcc31f088e35d211a2c2e29c22343e4466",
    ("geometry", "count2", "--N", "500", "--L1p", "1/3", "--L1", "7"):
        "69e59ae6f293d6a35f2397f5dbe1b7a2175aca07b6796ee2e24c042e01704c43",
    ("geometry", "diagnose", "--ladder", "1000000,100000000", "--csv"):
        "3a14932fc8cb135b68a5038c36dcb78ca53fd8280da46c44e08a643cc23a5119",
    ("equidist", "--family", "C", "--type", "1,1", "--sign", "+", "--box", "1,8,1/8,8,1,6",
     "--ladder", "1000000000,1000000000000"):
        "fc1760577852b9b982014a964e10321df4933e563b5015bcfa243bd793986416",
    ("equidist", "--family", "T", "--type", "1,1", "--sign", "+", "--box", "1,4,1,6,1,3",
     "--ladder", "1000000000,1000000000000"):
        "b53f802386718936823f6573b37f6efb1e9b185b5be381c0d5965527413af846",
    ("partition", "--lo", "-1000000", "--hi", "1000000"):
        "5b78e63b61f06dd6fd99888657b39edaab99db3b985800182fc225665a133de0",
    ("density", "--type", "2,2", "--a2", "1", "--a3", "7", "--a4", "2"):
        "e14c336e90902ffe678b884da79ccc8427866a6797aadbe0b726ce3f93ac8d1e",
    ("measure", "--family", "C", "--type", "3,2", "--sign", "-", "--box", "1,8,1/8,8,1,6"):
        "454aa7837be9f1f4f7c3e8d1841658068f3ecd53d4492594a54c7dbd585f281a",
}


@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_cli_output_matches_the_recorded_digest(argv, capsys, monkeypatch):
    monkeypatch.delenv("PURESEXTIC_CACHE", raising=False)  # the config echo holds cache_dir
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[argv]
