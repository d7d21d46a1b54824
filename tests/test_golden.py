"""Golden CLI outputs: the SHA-256 of stdout for a few exact-output commands.

The gram, shape and verify digests were recorded before the Gram layer moved to
integer matrices; the geometry and equidist digests before the enumeration and
the raw counts moved onto geometry's window kernels; the partition, density and
measure digests before the Type rule became one table mod 15552.  So a change of
internal representation that alters a single byte of the output (a denominator,
an ordering, a decimal, a count) fails here.  When an output change is
intended, record the new digest in the same change that makes it.  The config
echo lost its `cache_dir` line when the density disk cache went, so every digest
of a command that echoes its config was re-recorded as the output before that
change with that one line removed.
"""

import hashlib

import pytest

from puresextic.cli import main

GOLDEN = {
    ("gram", "--m", "2", "--digits", "12"):
        "27e6d4b6a1251efe46520717867e28438a8e3b57d5b04c6f1d4513c2e6b04466",
    ("gram", "--m", "-44"):
        "fc0a292f5748163f50b827f98284c26e19287a7efd326d70bdb689b1e2a37255",
    ("shape", "--m", "32", "--digits", "10"):
        "3d020caba351bed46fddee02059cbdbc7624a007cd042f267d4bcf5b6edcb7b5",
    ("shape", "--m", "8775"):
        "6b7bee76e53b8d623422077381ef6c7458f46cf316b7e380267db94e89e3cfc1",
    ("verify", "--types", "all", "--per-type", "5"):
        "c49ff824a0a341358966a674a644bd98aa2f20188cbbf2b177c63940674b795d",
    ("geometry", "count", "--N", "100000"):
        "fee8e86d64c123e3026e81fca4cfeea629bad0125fd9b29084f81e654eb4e571",
    ("geometry", "count2", "--N", "500", "--L1p", "1/3", "--L1", "7"):
        "940f5db97fae61cf5411a649d0cdc4d1d4a760e598685885168f8007e66ce1ab",
    ("geometry", "diagnose", "--ladder", "1000000,100000000", "--csv"):
        "3a14932fc8cb135b68a5038c36dcb78ca53fd8280da46c44e08a643cc23a5119",
    ("equidist", "--family", "C", "--type", "1,1", "--sign", "+", "--box", "1,8,1/8,8,1,6",
     "--ladder", "1000000000,1000000000000"):
        "2d74c2ec4168a5c54f2dc214069a7fce53e8727e92338c666e039e5bec04a8b7",
    ("equidist", "--family", "T", "--type", "1,1", "--sign", "+", "--box", "1,4,1,6,1,3",
     "--ladder", "1000000000,1000000000000"):
        "7d2e5d77242c87bf94c953852bd0dd6958e2dd9c6dc9d8ee31af5c0eb4a41b38",
    ("partition", "--lo", "-1000000", "--hi", "1000000"):
        "b686b876602bd7c1d48928e28b427b658e672b6fd7f36699172a93dae93f69cb",
    ("density", "--type", "2,2", "--a2", "1", "--a3", "7", "--a4", "2"):
        "f1de74dfb8a9c5c1fba70dfc09a4c337a041935d07cd9986dbad47d64009ce7f",
    ("measure", "--family", "C", "--type", "3,2", "--sign", "-", "--box", "1,8,1/8,8,1,6"):
        "b789f8935096c1b5919be393e3640a6467aac8ce6b9a1de4d5d9b5fc66bdc966",
}


@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_cli_output_matches_the_recorded_digest(argv, capsys):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[argv]
