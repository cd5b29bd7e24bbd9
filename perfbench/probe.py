"""Set-up probe: what a fresh interpreter does before the first item can run.

Usage: python3 probe.py SPEC.json

SPEC names the source tree, the workload's entry module and its inputs;
the probe imports the entry module (`closurelab.cli` for CLI items, with
argparse, the process pool and `verify`), loads and parses every manifest,
presentation and polynomial, and exits.  run.py times the whole process, interpreter start included.
"""

import importlib
import json
import sys

with open(sys.argv[1]) as f:
    spec = json.load(f)
sys.path.insert(0, spec["src"])

importlib.import_module(spec["entry"])
import closurelab  # noqa: E402

for path in spec["manifests"]:
    for entry in closurelab.load_manifest(path):
        entry.presentation()
for text in spec["presentations"]:
    closurelab.parse_presentation(text)
for text in spec["polynomials"]:
    closurelab.parse_univariate(text, closurelab.QQ())
