"""Byte pins of canonical outputs: the rate sweep, audit reports, the
protocol's simulate report, transcript and attack report, and the build
reports, in text and in JSON.

The scheme inputs are fixed documents, not `hsa build` output, so a change
to the build search leaves these pins alone.  A digest changes only when the
rate table, the order of the audit's checks, the seeded round or a report
layout changes.
"""

import hashlib
import json
from pathlib import Path

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
# (3, 1, 1) over F_5 whose rows are all multiples of (1, 0): 10 of its 16 exact
# checks fail, relay ones with a colluder and server ones with and without
LEAKY_311 = {
    "U": 3, "V": 1, "T": 1, "q": 5,
    "H": {"q": 5, "rows": 3, "cols": 2, "data": [1, 0, 1, 0, 3, 0]},
    "row_index": [["1,1", 0], ["2,1", 1], ["3,1", 2]],
}


def _vandermonde(U, V, T, q, gamma):
    """The (U, V, T) extended-Vandermonde document at (q, gamma), from the node
    formula: x_0 = 0, x_i = x_(i-1) + gamma^i; n = max(V + T, min(UV - 1,
    U + T - 1)) source symbols; the parity row (negated column sums) belongs
    to user (U, V), the Vandermonde rows to the other users in lexicographic
    order."""
    n = max(V + T, min(U * V - 1, U + T - 1))
    xs = [0]
    for i in range(1, U * V - 1):
        xs.append((xs[-1] + pow(gamma, i, q)) % q)
    rows = [[pow(x, j, q) for j in range(n)] for x in xs]
    rows.insert(0, [-sum(col) % q for col in zip(*rows)])
    users = [(u, v) for u in range(1, U + 1) for v in range(1, V + 1)]
    order = [(U, V)] + users[:-1]
    return {
        "U": U, "V": V, "T": T, "q": q, "gamma": gamma,
        "kind": "extended_vandermonde", "elements": xs,
        "H": {"q": q, "rows": len(rows), "cols": n, "data": [x for r in rows for x in r]},
        "row_index": [[f"{u},{v}", order.index((u, v))] for (u, v) in users],
    }


def _times_unit_triangular(doc):
    """An external copy with H replaced by H*A, where A is unit upper triangular
    (so invertible) with fixed entries above the diagonal: the same users and
    the same rank for every condition matrix."""
    h = doc["H"]
    q, n = h["q"], h["cols"]
    a = [[1 if i == j else (7 * i + 3 * j + 1) % q if j > i else 0 for j in range(n)]
         for i in range(n)]
    rows = [h["data"][i * n:(i + 1) * n] for i in range(h["rows"])]
    data = [sum(r[k] * a[k][j] for k in range(n)) % q for r in rows for j in range(n)]
    return dict(doc, kind="external", gamma=None, elements=[], H=dict(h, data=data))


# (4, 3, 4) at (23, 2): its cluster sums leak to the server in 10 collusion sets
VANDERMONDE_434 = _vandermonde(4, 3, 4, 23, 2)
EXTERNAL_434 = _times_unit_triangular(VANDERMONDE_434)
# both give one report, so one digest
AUDIT_434 = "7f9ca8f610f5004cce667c771730dbfbd029da70849677ca9132d97b2daa5a6e"
# the ladder schemes the build writes for (4, 4, 6) and, from q = 101, (6, 3, 5):
# 4 and 102 server violations, over 74,465 and 88,312 checks
VANDERMONDE_446 = _vandermonde(4, 4, 6, 31, 7)
VANDERMONDE_635 = _vandermonde(6, 3, 5, 103, 8)
# (2, 2, 1) at (5, 2): 15 exact checks of 5^7 = 78,125 tuples, all passing
VANDERMONDE_221 = _vandermonde(2, 2, 1, 5, 2)

SWEEP = ["rates", "--sweep", "U=2..5", "V=1..4", "T=0..12"]
# on stdout and in the file --out writes alike
RATES_CSV = "fa79e8d55c2521ff4d7e016a0aa1879648f208b3a44018362f2f06e728f093d5"

PINS = [
    (SWEEP, None, 0, RATES_CSV),
    (SWEEP + ["--json"], None, 0,
     "fe0f7b4ae69b380e253e517a333503d8a1d1edcc520e49b0c7e2dfe02ffb8534"),
    (["audit"], CLEAN, 0, "b35df772f67bea87303d68ed08555941b64d1dde4a2f68e5e49bfb5790165dab"),
    (["audit", "--exact"], CLEAN, 0,
     "3d84b5d719fc3bef873a648699bf88868d879dba02ad02dd74dca8ae581c54a4"),
    (["audit"], LEAKY, 5, "15de59baae94c5c8fe503979752b2905270937a7a6c1243e08bb79dcd893f3d5"),
    (["audit", "--exact"], LEAKY, 5,
     "814df8ca9a961d790569eeff4b0401dbdbd882f1b95c7b6bdd4a58d0df2f1861"),
    (["audit"], VANDERMONDE_434, 5, AUDIT_434),
    (["audit"], EXTERNAL_434, 5, AUDIT_434),
    (["audit"], VANDERMONDE_446, 5,
     "1b1b2fbdf9f9e8a2c51689d7237c9843c6a86698fa687f7fb4b6c48e183adf62"),
    (["audit"], VANDERMONDE_635, 5,
     "ef9f90b06c06d99875c8e578516e51ae7ceaef942ac231a4f9d50277487c684c"),
    (["audit", "--exact"], VANDERMONDE_221, 0,
     "7c4cc57a275601b75ac3c957d2bc63e48b5bb16e0d64a85f304e9ae76f1de53b"),
    (["audit", "--pretty"], CLEAN, 0,
     "7ce9e08318d6b1d09eb0e6fd7bed9422b9b2a9ec2330c8868933a10648af8559"),
    (["audit", "--pretty"], LEAKY, 5,
     "f2dac6c7a33a40d2ba5aa448bb4ae65169ba797a72fcc45210a3060d0fed1937"),
    (["audit", "--exact"], LEAKY_311, 5,
     "312030c1abb61072d9ed987c6f0732f3a0475a836fcaa8d94492d1653735d970"),
]


@pytest.mark.parametrize(
    "argv, scheme, code, digest",
    PINS,
    ids=[
        "rates-csv", "rates-json", "audit-clean", "exact-clean", "audit-leaky", "exact-leaky",
        "audit-vandermonde-434", "audit-external-434", "audit-vandermonde-446",
        "audit-vandermonde-635", "exact-vandermonde-221", "audit-pretty-clean",
        "audit-pretty-leaky", "exact-leaky-311",
    ],
)
def test_stdout_bytes_are_pinned(tmp_path, capsys, argv, scheme, code, digest):
    if scheme is not None:
        path = tmp_path / "scheme.json"
        path.write_text(json.dumps(scheme))
        argv = [argv[0], "--scheme", str(path), *argv[1:]]
    assert main(argv) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# The protocol commands run in the scheme file's directory with a relative
# --scheme path, since their stdout and the transcript's scheme_ref repeat it.
PROTOCOL_PINS = [
    (["simulate", "--json", "--L", "8", "--seed", "1", "--transcript", "t.json"], None,
     "2fc9bf2143740b707a9603d99dc4ab2eba225182a424509961c2f26cc23a590e"),
    (["simulate", "--json", "--L", "8", "--seed", "1", "--transcript", "t.json"], "t.json",
     "e72bfad48a030cd0fec92dd99784e2cf9bde6237f7d31f8f02f59ff3454702d3"),
    (["attack", "--json", "--rounds", "5", "--L", "2"], None,
     "42a3244e234c48dbb842b4dcd7ba030c30bff23dc258c4a232f50adf334dfd2e"),
    (["simulate", "--L", "8", "--seed", "1"], None,
     "9f60ee68f60aa6f6d14525b4e61e93bcdd5042f041d1455177ba0167a2fc5a7c"),
    (["attack", "--rounds", "5", "--L", "2"], None,
     "22fdbde3d547b0bde46017190ebdfe77f5929f35988b8f6e78d925514f9edec6"),
]


@pytest.mark.parametrize(
    "argv, written, digest",
    PROTOCOL_PINS,
    ids=["simulate-stdout", "simulate-transcript", "attack-stdout", "simulate-text",
         "attack-text"],
)
def test_protocol_bytes_are_pinned(tmp_path, monkeypatch, capsys, argv, written, digest):
    monkeypatch.chdir(tmp_path)
    Path("scheme.json").write_text(json.dumps(CLEAN))
    assert main([argv[0], "--scheme", "scheme.json", *argv[1:]]) == 0
    out = capsys.readouterr().out if written is None else Path(written).read_text()
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# Reports that read no scheme file, run in a scratch directory so that a
# relative --out is what the build report repeats.  The build lines follow
# the build search, so a change to it moves them.
BUILD_221 = ["build", "--U", "2", "--V", "2", "--T", "1", "--out", "s.json"]

REPORT_PINS = [
    (BUILD_221, None, "77c96e8806be46d2967be29023fb0671788023ab8926890cb4e6b52d73e6e9c6"),
    (BUILD_221 + ["--json"], None,
     "67c6458752b2b0285f4ed95bef4d275af89c9b658aa60318fc999e95ce5bfecb"),
    (BUILD_221 + ["--baseline"], None,
     "b1a12ede96e3af9cd139beab7bf64f15cdd29a7fbe1e4d3ce1a0870c908753f9"),
    (["build", "--U", "2", "--V", "1", "--T", "1", "--force-infeasible", "--out", "f.json"], None,
     "aa73127f172c05672dbfcdfefd162707e9861b46e1679fab3258c37775c733a3"),
    (SWEEP + ["--out", "rates.csv"], "rates.csv", RATES_CSV),
]


@pytest.mark.parametrize(
    "argv, written, digest",
    REPORT_PINS,
    ids=["build-text", "build-json", "build-baseline-text", "build-forced-text", "rates-out"],
)
def test_report_bytes_are_pinned(tmp_path, monkeypatch, capsys, argv, written, digest):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    out = capsys.readouterr().out
    if written is not None:
        assert out == ""
        out = Path(written).read_text()
    assert hashlib.sha256(out.encode()).hexdigest() == digest
