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
change with that one line removed.  The echo lost its `workers` key when the
process pool went; those 11 digests were re-recorded by one rule: the old
stdout through json.loads, `config["workers"]` deleted, then
json.dumps(obj, indent=2, sort_keys=True, default=str) + "\n" (the rule gives
the old stdout back byte for byte when nothing is deleted).  The verify and
diagnose --csv digests echo no config and did not change.
"""

import hashlib

import pytest

from puresextic.cli import main

GOLDEN = {
    ("gram", "--m", "2", "--digits", "12"):
        "00675fc6ea48abec6ba770feee1a6be15125a97174e863fa11ffc3dc45b1f78b",
    ("gram", "--m", "-44"):
        "258e9c6112106d284cde6419214c1d18783150a323affec53cbedc004c869f33",
    ("shape", "--m", "32", "--digits", "10"):
        "2115381d1c2b76eb1b18aaab5f87694c6d5b937e62b761dcf1d24aa7b2d78af8",
    ("shape", "--m", "8775"):
        "71c068589f8f32fb842ca622070f70fe9be397e7fb71cecd1b748ac95ea55fff",
    ("verify", "--types", "all", "--per-type", "5"):
        "c49ff824a0a341358966a674a644bd98aa2f20188cbbf2b177c63940674b795d",
    ("geometry", "count", "--N", "100000"):
        "c13554fa80e785e36b10677f413757d17b2a61f5b170b3f4e5a26f7271f1ff98",
    ("geometry", "count2", "--N", "500", "--L1p", "1/3", "--L1", "7"):
        "32166011b0482061764566aabd5e62818a5486140633de35f3f6bf30ac2c37b6",
    ("geometry", "diagnose", "--ladder", "1000000,100000000", "--csv"):
        "3a14932fc8cb135b68a5038c36dcb78ca53fd8280da46c44e08a643cc23a5119",
    ("equidist", "--family", "C", "--type", "1,1", "--sign", "+", "--box", "1,8,1/8,8,1,6",
     "--ladder", "1000000000,1000000000000"):
        "a3f721ac29a597bd1771b13740a3257a3f5103754264f47f4d105b171c9d8c97",
    ("equidist", "--family", "T", "--type", "1,1", "--sign", "+", "--box", "1,4,1,6,1,3",
     "--ladder", "1000000000,1000000000000"):
        "e89a0ddd47ed3c5ee7054795edb0c55409a833809d99c2b36a287fdeacf5ce29",
    ("partition", "--lo", "-1000000", "--hi", "1000000"):
        "ea4e4e4e4e2f1a9c75242cbe77f3b335a64541c098bbc3a11fc415d4f9d346f6",
    ("density", "--type", "2,2", "--a2", "1", "--a3", "7", "--a4", "2"):
        "bc6ec0d09a423ee5655c1d2d059fd2cf1ee8bc1ef268e6cd1421b233210526af",
    ("measure", "--family", "C", "--type", "3,2", "--sign", "-", "--box", "1,8,1/8,8,1,6"):
        "d45fd9d8a6660ac3ba52806ab0b7f32a671064f94cbee4be0135cb6b5aaa7850",
}


@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_cli_output_matches_the_recorded_digest(argv, capsys):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[argv]
