"""Golden CLI outputs: the SHA-256 of stdout for a few exact-output commands.

The digests were recorded before the Gram layer moved to integer matrices, so
a change of internal representation that alters a single byte of the JSON
(a denominator, an ordering, a decimal) fails here.  When an output change is
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
}


@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_cli_output_matches_the_recorded_digest(argv, capsys, monkeypatch):
    monkeypatch.delenv("PURESEXTIC_CACHE", raising=False)  # the config echo holds cache_dir
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[argv]
