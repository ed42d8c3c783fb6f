"""Set-up probe: import the CLI and load scheme files, as every command does first.

    python bench/load_inputs.py [SCHEME.json ...]

Prints the path of the imported ``hsagg`` package so the caller can check
that it comes from the checkout under test.
"""

import json
import sys
from pathlib import Path

import hsagg.cli
from hsagg import schemes

for path in sys.argv[1:]:
    schemes.import_scheme(json.loads(Path(path).read_text()))
print(hsagg.cli.__file__)
