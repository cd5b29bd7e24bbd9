"""Pin the CLI's output, byte for byte, on a fixed set of commands.

Each command's exit code, stdout and stderr are hashed together.  Elapsed
times are the only part that varies between runs, so the `ms` key is
dropped from every JSON record and `NNNms]` is masked in text before
hashing.  A refactoring that claims to change no output must leave every
digest as it is.  Re-pin a digest only when an output changes on purpose,
and list each re-pin, with its reason, in CHANGES.md.

To print the current digests: `python tests/test_golden_outputs.py`.
"""

import hashlib
import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest

from closurelab.cli import main

FULL_JSON = ["--emit", "full", "--json"]

COMMANDS = {
    "table1": ["table", "--manifest", "table1.json", "--json"],
    "table1-exact": ["table", "--manifest", "table1.json", "--json", "--exact"],
    "table2-m3": ["table", "--manifest", "table2.json", "--max-m", "3", "--json"],
    "close-x2-m2": ["close", "--algebra", "Q[x]/(x^2)", "--m", "2"] + FULL_JSON,
    "close-x2y2-m4": ["close", "--algebra", "Q[x,y]/(x^2, y^2)", "--m", "4"]
    + FULL_JSON,
    "close-x2y2-m4-exact": ["close", "--algebra", "Q[x,y]/(x^2, y^2)",
                            "--m", "4", "--exact"] + FULL_JSON,
    "close-points-m2": ["close", "--algebra", "Q[x]/(x^8-x-1)", "--m", "2"]
    + FULL_JSON,
    "close-not-monogenic-m2": ["close", "--algebra",
                               "Q[x,y,z]/(x^2-x, y^2, z^2)", "--m", "2", "--json"],
    "close-gf4-naive": ["close", "--algebra", "GF(2,2)[x,y]/(x^2, y^2)",
                        "--m", "2", "--method", "naive"] + FULL_JSON,
    "close-gf49": ["close", "--algebra", "GF(7,2)[x,y]/(x^2, y^2)", "--m", "2"]
    + FULL_JSON,
    "close-gf343": ["close", "--algebra", "GF(7,3)[x]/(x^3 - t)", "--m", "2"]
    + FULL_JSON,
    "close-f2-text": ["close", "--algebra", "F2[x,y]/(x^2, y^2)", "--m", "4",
                      "--emit", "full"],
    # valid inputs that use t-powers, the ideal-power sugar, juxtaposed
    # factors and a/b coefficients
    "close-gf49-tpowers": ["close", "--algebra",
                           "GF(7,2)[x]/(x^3 + t^2x^2 + 3t^1x + t)", "--m", "3"]
    + FULL_JSON,
    "close-q-fractions": ["close", "--algebra",
                          "Q[x,y]/(x^2 - 1/2xy + 3/4y^2, y^3, 2/3x^2y - xy^2)",
                          "--m", "2", "--exact"] + FULL_JSON,
    "close-sugar-cube": ["close", "--algebra", "Q[x,y]/((y,x)^3)", "--m", "2"]
    + FULL_JSON,
    "tower-q": ["tower", "--f", "Z^4+1", "--m", "3"],
    "tower-gf4": ["tower", "--field", "GF(2,2)", "--f", "x^3 + t*x + 1",
                  "--m", "3"],
    "tower-z": ["tower", "--f", "Z^3-2", "--m", "2", "--field", "Z"],
    "tower-gf343": ["tower", "--field", "GF(7,3)", "--f", "x^3 + t*x + 1",
                    "--m", "2"],
    "tower-q-json": ["tower", "--f", "Z^5-2", "--m", "3", "--json"],
    "tower-gf343-tpowers": ["tower", "--field", "GF(7,3)",
                            "--f", "x^3 + t^2x^2 + t^1", "--m", "2"],
    "transform": ["transform", "--f", "Z^3-6Z^2+11Z-6", "--g", "X^2"],
    "transform-gf4": ["transform", "--field", "GF(2,2)", "--f", "Z^2+t*Z+1",
                      "--g", "X^2"],
    "transform-gf343": ["transform", "--field", "GF(7,3)", "--f", "Z^3+t*Z+1",
                        "--g", "X^2+t"],
    "transform-gf4-tpowers": ["transform", "--field", "GF(2,2)",
                              "--f", "Z^2+t^2*Z+t^1", "--g", "X^2+t*X"],
    "malformed-paren": ["close", "--algebra", "Q[x]/(x^2", "--m", "2"],
    "malformed-variable": ["close", "--algebra", "Q[x]/(x^2, y)", "--m", "2"],
    "malformed-exponent": ["close", "--algebra", "Q[x]/(x^)", "--m", "2"],
    # stage maps below m = n over Q, and the canonical m = n quotient over
    # GF(4): map rows that the products of each closure decide
    "close-x2y3xy-m3-exact": ["close", "--algebra", "Q[x,y]/(x^2, y^3, x*y)",
                              "--m", "3", "--exact"] + FULL_JSON,
    "close-gf4-m4": ["close", "--algebra",
                     "GF(2,2)[x,y]/(x^2+t*x*y, y^2+x*y)", "--m", "4"] + FULL_JSON,
    # the cheap property suites: each check's name, verdict and detail
    "verify-product-etale-family": ["verify", "--suite", "product,etale,family",
                                    "--json"],
    "verify-monogenic": ["verify", "--suite", "monogenic", "--json"],
    # the trace-map check and the certificate on every Table 1 entry
    "verify-trivial": ["verify", "--suite", "trivial", "--json"],
}

PINNED = {
    "close-f2-text": "c42d74a5203701cdf4834830487ab39cdb28c6b153c87449a1d774f20029e7c2",
    "close-gf343": "20341fed2d00dcff65ac08498e0df44e3c63d033dc1281fe2bc14ca6dbf35145",
    "close-gf4-m4": "e6d66560e4aa61ee744e695f93499912111847e443bd0ca7827ce3ab68390013",
    "close-gf4-naive": "947d2c529c6fefafc956600edc1547991e56c384af51aef4d4f5aaa3d17c8b68",
    "close-gf49": "ce787f2660093d258da4721151790b67e88b26024e30f853d353b828e3149709",
    "close-gf49-tpowers": "a88417cecff42832b31c1b4d3430a349ce2690ce6879f795bda976ea1e338c9d",
    "close-not-monogenic-m2": "5f5a4e113216ec44c7b806c8ffbec97273958ac284d3ec6dc033f7a277c48371",
    "close-points-m2": "898f388417744b0113f45af97d80a5bcb017e294f262c5978cbc45ea82b42efa",
    "close-q-fractions": "dc1a768d9e28fb83678f0923782a0980e9c90fcc420fb8131e94bf2edb95eca2",
    "close-sugar-cube": "22b6c85e7375916ad25d47230449cfe79073fcb4d0a73312e1130b5f8f96b68b",
    "close-x2-m2": "db0fa3e08aaae5691288e41d647be9f85fb08be924c69f1859158925a5fe2486",
    "close-x2y2-m4": "a96d75b98c9a34beeee618440a2162ab6bf93acf8478292bf48e995aba618bba",
    "close-x2y2-m4-exact": "2c1c71e6e970be2f535eca69fb6952f178cc3f6641f1a93e517574193bfdc9d0",
    "close-x2y3xy-m3-exact": "16a18b00a8e72d8997c9fb0abb7d0372ac4b5035788a60672a63a9e93b9d21b5",
    "malformed-exponent": "1135cc60d3d17ed441ff527019ff966362200253860342a90caf10dd02b3bd67",
    "malformed-paren": "8f3da2d22ccce112ec7cfa5f5ff7cee13f2ec6f4e055e3ee8be1c3b0a2aa8440",
    "malformed-variable": "8b7ec09964d6f838665a47790c7a5637bada671a826ffd7610fed72e5603e8ea",
    "table1": "cfebb73072a8f549034472d400f31ff3a89c54e6bb6f39fe24527421f5f5df01",
    "table1-exact": "f675c4b9b9ef83fec81430e47c6316ce60ae925a3a04fe431b2b61d361dabd2d",
    "table2-m3": "504fd07b8f926699c70f277b7e9b1da4d5364bdcaa808c04e3eea4435320def4",
    "tower-gf343": "2df1f064bc22378fec9289d338b49d31ef37210e74b45c3c54194540d0690ad9",
    "tower-gf343-tpowers": "e1fd76ab8c7168b2f876e6379e183b918b04b461a57bb02dd1bb3419efea8064",
    "tower-gf4": "4a03b3f99bdbbcb1adf1d5b8f705543833e60a6f02af65f8d7ae8b8db7b79d16",
    "tower-q": "c477597d2dce6df31a29142a198f5d936c6ccf4c9fa060a054ab57da4da35dbb",
    "tower-q-json": "76d785d91026827bcc0795fc4e9a896f64f6052c3db2974869e771617e03b912",
    "tower-z": "1ef8601093f83d03deafe5b6c9e47c96f5a84344d11a1447bf79e299180e22ad",
    "transform": "3842e19c262a87cd33a484f22e127ce8956da576a6fdbd7a9a77c2154db95657",
    "transform-gf343": "b884a7c8615037b3d2f2d010a1580d815936860d570fb54561503654cb4e7a05",
    "transform-gf4": "3db8fa6a6be8e92375b42d25687576d4418d9b7fb833b12eab74418b77a4900b",
    "transform-gf4-tpowers": "4f14dd4dfe5723115df3ecbc585b5662fa1721a9caa647fa756edaca40558a23",
    "verify-monogenic": "d0c10a10b7f28371d6f3760698002d72ce4ee98d5d426cc0b6c9949ccf10c802",
    "verify-product-etale-family": "f43a324b0fa93ebe05c7928827742671802c951365f1c98075307b73c72230fe",
    "verify-trivial": "96b1eba5ea37410ec3806eb617529058cf21730bb25deaeaeb2d81f91f47b045",
}


def _masked(text: str) -> str:
    lines = []
    for line in text.splitlines():
        try:
            record = json.loads(line)
        except ValueError:
            record = None
        if isinstance(record, dict):
            record.pop("ms", None)
            line = json.dumps(record, sort_keys=True)
        lines.append(re.sub(r"\d+ms\]", "NNNms]", line))
    return "\n".join(lines)


def digest(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    blob = f"{code}\n{_masked(out.getvalue())}\n--\n{_masked(err.getvalue())}"
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_is_pinned(name, monkeypatch):
    monkeypatch.delenv("CLOSURELAB_PRIMES", raising=False)
    monkeypatch.delenv("CLOSURELAB_BUDGET", raising=False)
    assert digest(COMMANDS[name]) == PINNED[name], \
        f"{' '.join(COMMANDS[name])} changed its output"


if __name__ == "__main__":
    for name in sorted(COMMANDS):
        print(f'    "{name}": "{digest(COMMANDS[name])}",')
