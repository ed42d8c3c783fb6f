"""Byte pins of canonical stdout: the rate sweep and audit reports.

The audit inputs are fixed scheme documents, not `hsa build` output, so a
change to the build search leaves these pins alone.  A digest changes only
when the rate table, the order of the audit's checks or a report layout
changes.
"""

import hashlib
import json

import pytest

from hsagg.cli import main

# (3, 1, 1) over F_5 whose rows are pairwise independent: every check passes.
CLEAN = {
    "U": 3, "V": 1, "T": 1, "q": 5,
    "H": {"q": 5, "rows": 3, "cols": 2, "data": [1, 0, 0, 1, 4, 4]},
    "row_index": [["1,1", 0], ["2,1", 1], ["3,1", 2]],
}
# (2, 2, 1) over F_3 with cluster 2's rows equal: relay and server violations.
LEAKY = {
    "U": 2, "V": 2, "T": 1, "q": 3,
    "H": {"q": 3, "rows": 4, "cols": 2, "data": [1, 0, 0, 1, 1, 1, 1, 1]},
    "row_index": [["1,1", 0], ["1,2", 1], ["2,1", 2], ["2,2", 3]],
}

SWEEP = ["rates", "--sweep", "U=2..5", "V=1..4", "T=0..12"]

PINS = [
    (SWEEP, None, 0, "fa79e8d55c2521ff4d7e016a0aa1879648f208b3a44018362f2f06e728f093d5"),
    (SWEEP + ["--json"], None, 0,
     "fe0f7b4ae69b380e253e517a333503d8a1d1edcc520e49b0c7e2dfe02ffb8534"),
    (["audit"], CLEAN, 0, "b35df772f67bea87303d68ed08555941b64d1dde4a2f68e5e49bfb5790165dab"),
    (["audit", "--exact"], CLEAN, 0,
     "3d84b5d719fc3bef873a648699bf88868d879dba02ad02dd74dca8ae581c54a4"),
    (["audit"], LEAKY, 5, "15de59baae94c5c8fe503979752b2905270937a7a6c1243e08bb79dcd893f3d5"),
    (["audit", "--exact"], LEAKY, 5,
     "814df8ca9a961d790569eeff4b0401dbdbd882f1b95c7b6bdd4a58d0df2f1861"),
]


@pytest.mark.parametrize(
    "argv, scheme, code, digest",
    PINS,
    ids=["rates-csv", "rates-json", "audit-clean", "exact-clean", "audit-leaky", "exact-leaky"],
)
def test_stdout_bytes_are_pinned(tmp_path, capsys, argv, scheme, code, digest):
    if scheme is not None:
        path = tmp_path / "scheme.json"
        path.write_text(json.dumps(scheme))
        argv = [argv[0], "--scheme", str(path), *argv[1:]]
    assert main(argv) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
