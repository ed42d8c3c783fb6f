"""CLI behavior: output formats, file round-trips, exit-code contract."""

import argparse
import ast
import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from hsagg import cli
from hsagg.cli import main
from hsagg.fields import next_prime
from hsagg.rates import HsaConfig
from hsagg.schemes import build_baseline, build_scheme, import_scheme, scheme_to_json

from conftest import golden_2x3_f3_obj, golden_3x2_f17_obj


ROOT = Path(__file__).resolve().parents[1]


def run_cli(*argv):
    return main(list(argv))


def run_process(argv, cwd, timeout):
    """Run argv in a fresh interpreter that imports hsagg from this checkout."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, *argv], cwd=cwd, env=env, capture_output=True, text=True,
        timeout=timeout,
    )


# ---------------------------------------------------------------------------
# rates
# ---------------------------------------------------------------------------


def test_rates_single_row(capsys):
    assert run_cli("rates", "--U", "2", "--V", "3", "--T", "1") == 0
    out = capsys.readouterr().out
    assert "2,3,1,true,1,1,1,4,5,V+T" in out


def test_rates_sweep_grid(capsys):
    assert run_cli("rates", "--sweep", "U=2..4", "V=1..3", "T=0..6") == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 1 + 3 * 3 * 7
    assert lines[0].startswith("U,V,T,feasible")


def test_rates_domain_error():
    assert run_cli("rates", "--U", "1", "--V", "3", "--T", "0") == 2
    assert run_cli("rates", "--sweep", "U=2..3") == 2


@pytest.mark.parametrize("shape", [["--U", "9", "--V", "9", "--T", "9"], ["--T", "0"]])
def test_rates_sweep_with_shape_exit_2(capsys, shape):
    # --sweep replaces --U --V --T: given with any of them, it is refused,
    # not run with the single point ignored
    assert run_cli("rates", *shape, "--sweep", "U=2", "V=1", "T=0") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: --sweep")


def test_rates_json_and_file(tmp_path, capsys):
    out = tmp_path / "rates.json"
    assert run_cli(
        "rates", "--U", "2", "--V", "3", "--T", "3", "--json", "--out", str(out)
    ) == 0
    rows = json.loads(out.read_text())
    assert rows[0]["feasible"] is False
    assert rows[0]["R_Zsigma"] is None


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------


def test_build_writes_scheme(tmp_path, capsys):
    out = tmp_path / "s.json"
    assert run_cli("build", "--U", "3", "--V", "2", "--T", "2", "--out", str(out)) == 0
    stdout = capsys.readouterr().out
    assert "n_source=4" in stdout
    scheme = import_scheme(json.loads(out.read_text()))
    assert (scheme.H.rows, scheme.H.cols) == (6, 4)


def test_build_infeasible_exit_code(tmp_path, capsys):
    out = tmp_path / "s.json"
    assert run_cli("build", "--U", "2", "--V", "3", "--T", "3", "--out", str(out)) == 3
    assert "(U-1)*V" in capsys.readouterr().err


def test_build_baseline(tmp_path):
    out = tmp_path / "b.json"
    assert run_cli(
        "build", "--baseline", "--U", "2", "--V", "2", "--T", "1", "--out", str(out)
    ) == 0
    scheme = import_scheme(json.loads(out.read_text()))
    assert scheme.kind == "baseline"
    assert scheme.H.row_list()[:3] == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert scheme.H.row(3) == (2, 2, 2)


def test_build_force_infeasible_labels_scheme(tmp_path):
    out = tmp_path / "f.json"
    assert run_cli(
        "build", "--U", "2", "--V", "2", "--T", "2", "--force-infeasible",
        "--out", str(out),
    ) == 0
    obj = json.loads(out.read_text())
    assert obj["insecure_by_construction"] is True


def test_build_import_round_trip_is_byte_stable(tmp_path):
    out = tmp_path / "s.json"
    run_cli("build", "--U", "2", "--V", "3", "--T", "1", "--out", str(out))
    text = out.read_text()
    again = scheme_to_json(import_scheme(json.loads(text)))
    assert again == text


def test_build_json_output(tmp_path, capsys):
    out = tmp_path / "s.json"
    assert run_cli(
        "build", "--U", "2", "--V", "2", "--T", "1", "--q", "5", "--json",
        "--out", str(out),
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["q"] == 5 and payload["n_source"] == 3
    assert payload["kind"] == "extended_vandermonde"


def test_build_q_beyond_primality_bound_exit_2(tmp_path, capsys):
    out = tmp_path / "s.json"
    assert run_cli(
        "build", "--U", "2", "--V", "1", "--T", "0", "--q", str(4 * 10**24),
        "--out", str(out),
    ) == 2
    assert capsys.readouterr().err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("q", ["-7", "0", "1"])
@pytest.mark.parametrize("extra", [[], ["--baseline"]])
def test_build_q_below_two_exit_2(tmp_path, capsys, q, extra):
    out = tmp_path / "s.json"
    argv = ["build", "--U", "2", "--V", "2", "--T", "1", "--q", q, *extra, "--out", str(out)]
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: q must be at least 2, got {q}\n"
    assert not out.exists()


def test_build_minor_limit_exit_6(tmp_path):
    # C(99, 59) ~ 8.2e27 parity-row minors per (q, gamma): refused before the search
    out = tmp_path / "s.json"
    proc = run_process(
        ["-m", "hsagg.cli", "build", "--U", "10", "--V", "10", "--T", "50", "--out", str(out)],
        tmp_path, 20,
    )
    assert proc.returncode == 6, proc.stderr
    assert proc.stderr.count("\n") == 1 and "minors" in proc.stderr
    assert not out.exists()


def test_build_update_limit_exit_6(tmp_path):
    # 498,501 minors, but a moment tree 997 levels deep: refused before the search
    out = tmp_path / "s.json"
    start = time.monotonic()
    proc = run_process(
        ["-m", "hsagg.cli", "build", "--U", "2", "--V", "500", "--T", "498", "--out", str(out)],
        tmp_path, 20,
    )
    assert proc.returncode == 6, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and "moment updates" in proc.stderr
    assert time.monotonic() - start < 10
    assert not out.exists()


def test_build_q_beyond_prime_search_limit_exit_6(tmp_path, capsys):
    # a prime above the build's prime-search limit leaves nothing to search
    out = tmp_path / "s.json"
    assert run_cli(
        "build", "--U", "2", "--V", "2", "--T", "1", "--q", "1000003", "--out", str(out)
    ) == 6
    assert capsys.readouterr().err.count("\n") == 1
    assert not out.exists()


def test_build_q_above_prime_search_limit_names_the_starting_prime(tmp_path, capsys):
    # no prime is tried, so the refusal names the start rather than a failed search
    out = tmp_path / "s.json"
    assert run_cli(
        "build", "--U", "3", "--V", "2", "--T", "1", "--q", "2000003", "--out", str(out)
    ) == 6
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: the starting prime 2000003 lies above the prime search limit 1000000\n"
    )
    assert not out.exists()


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


@pytest.fixture()
def golden_f3_file(tmp_path):
    path = tmp_path / "golden_f3.json"
    path.write_text(json.dumps(golden_2x3_f3_obj()))
    return str(path)


@pytest.fixture()
def golden_f17_file(tmp_path):
    path = tmp_path / "golden_f17.json"
    path.write_text(json.dumps(golden_3x2_f17_obj()))
    return str(path)


def test_simulate_prints_rates(golden_f3_file, capsys):
    assert run_cli("simulate", "--scheme", golden_f3_file, "--seed", "7") == 0
    out = capsys.readouterr().out
    assert "rates R_X=1 R_Y=1 R_Z=1 R_Zsigma=4" in out


def test_simulate_multisymbol_transcript(golden_f3_file, tmp_path, capsys):
    transcript = tmp_path / "t.json"
    assert run_cli(
        "simulate", "--scheme", golden_f3_file, "--L", "8", "--seed", "1",
        "--transcript", str(transcript), "--json",
    ) == 0
    doc = json.loads(transcript.read_text())
    assert doc["L"] == 8
    assert all(len(v) == 8 for v in doc["W"].values())
    assert all(len(v) == 8 for v in doc["X"].values())
    assert len(doc["decoded"]) == 8
    payload = json.loads(capsys.readouterr().out)
    assert payload["decoded"] == doc["decoded"]


def test_simulate_corrupt_scheme(tmp_path, capsys):
    obj = golden_2x3_f3_obj()
    obj["H"]["data"][0] = 2  # break the zero row sum
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(obj))
    assert run_cli("simulate", "--scheme", str(path)) == 4


def test_simulate_unreadable_file(tmp_path):
    path = tmp_path / "nope.json"
    assert run_cli("simulate", "--scheme", str(path)) == 4
    path.write_text("{not json")
    assert run_cli("simulate", "--scheme", str(path)) == 4


# Bytes that are not UTF-8, nesting past the recursion limit, and an integer
# past the int-string limit: each must be refused as a malformed file.
HOSTILE_FILES = {
    "not-utf8": b"\xff\xfe{}",
    "deep-nesting": b"[" * 100000,
    "long-integer": b'{"U": ' + b"9" * 4301 + b"}",
}


@pytest.mark.parametrize("command", ["audit", "simulate", "attack"])
@pytest.mark.parametrize("content", HOSTILE_FILES.values(), ids=HOSTILE_FILES.keys())
def test_hostile_scheme_file_exit_4(tmp_path, capsys, command, content):
    path = tmp_path / "hostile.json"
    path.write_bytes(content)
    assert run_cli(command, "--scheme", str(path)) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"error: cannot read scheme file {path}: ")


def test_hostile_scheme_file_process_prints_one_line(tmp_path):
    (tmp_path / "hostile.json").write_bytes(HOSTILE_FILES["deep-nesting"])
    proc = run_process(["-m", "hsagg.cli", "audit", "--scheme", "hostile.json"], tmp_path, 60)
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: cannot read scheme file hostile.json: ")
    assert len(proc.stderr.splitlines()) == 1


def _baseline_2x2_1_obj():
    return json.loads(scheme_to_json(build_baseline(HsaConfig(2, 2, 1))))


# Only extended_vandermonde documents list nodes; any other value is refused
# rather than dropped, and a long list is not echoed back.
@pytest.mark.parametrize("command", ["audit", "simulate", "attack"])
@pytest.mark.parametrize("make", [golden_2x3_f3_obj, _baseline_2x2_1_obj])
def test_elements_on_other_kinds_exit_4(tmp_path, capsys, command, make):
    obj = dict(make(), elements=[1, 2, 3] * 1000)
    path = tmp_path / "nodes.json"
    path.write_text(json.dumps(obj))
    assert run_cli(command, "--scheme", str(path)) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {obj['kind']} schemes carry no elements\n"


# An extended_vandermonde document whose H is wider than its UV-1 nodes: the
# width is refused before the node construction is rebuilt.
WIDE_VANDERMONDE = {
    "U": 2, "V": 1, "T": 0, "q": 5, "gamma": 2, "kind": "extended_vandermonde",
    "elements": [0], "H": {"q": 5, "rows": 2, "cols": 2, "data": [1, 1, 4, 4]},
    "row_index": [["1,1", 1], ["2,1", 0]],
}


@pytest.mark.parametrize("command", ["audit", "simulate", "attack"])
def test_vandermonde_wider_than_its_nodes_exit_4(tmp_path, capsys, command):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(WIDE_VANDERMONDE))
    assert run_cli(command, "--scheme", str(path)) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: H has 2 columns, more than the UV-1 = 1 nodes\n"


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------


def test_audit_clean_schemes(golden_f3_file, golden_f17_file, capsys):
    assert run_cli("audit", "--scheme", golden_f3_file) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["relay_ok"] and report["server_ok"]
    assert run_cli("audit", "--scheme", golden_f17_file) == 0


def test_audit_insecure_scheme_exit_5(tmp_path, capsys):
    # all-zero matrix keeps the zero row sum but provides no masking at all
    obj = golden_2x3_f3_obj()
    obj["H"]["data"] = [0] * 24
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(obj))
    assert run_cli("audit", "--scheme", str(path)) == 5
    report = json.loads(capsys.readouterr().out)
    assert report["violations"]
    first = report["violations"][0]
    assert first["kind"] == "relay" and first["collusion"] == []


def test_audit_budget_exit_6(golden_f17_file, capsys):
    assert run_cli("audit", "--scheme", golden_f17_file, "--budget", "3") == 6
    assert "budget" in capsys.readouterr().err


def test_audit_budget_counts_walk_nodes(tmp_path, capsys):
    # (4,3,4) at (23, 2) makes 3,970 checks, but its walks visit 794 server
    # sets and 256 sets per relay: 1,818 nodes
    path = tmp_path / "s.json"
    path.write_text(scheme_to_json(build_scheme(HsaConfig(4, 3, 4))))
    assert run_cli("audit", "--scheme", str(path), "--budget", "1818") == 5
    report = json.loads(capsys.readouterr().out)
    assert report["checks_performed"] == 3970 and len(report["violations"]) == 10
    assert run_cli("audit", "--scheme", str(path), "--budget", "1817") == 6
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: audit needs more than the budget of 1817 walk nodes\n"


def test_audit_walk_past_the_depth_limit_exit_6(tmp_path, capsys):
    scheme = build_baseline(HsaConfig(2, 129, 257), force_infeasible=True)
    path = tmp_path / "deep.json"
    path.write_text(scheme_to_json(scheme))
    assert run_cli("audit", "--scheme", str(path), "--budget", str(10**200)) == 6
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: audit needs collusion sets of 257 users, more than 256\n"
    )


def test_audit_negative_budget_exit_2(golden_f17_file, capsys):
    assert run_cli("audit", "--scheme", golden_f17_file, "--exact", "--budget", "-1") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --budget must be nonnegative, got -1\n"
    # a zero budget is valid and too small for any audit
    assert run_cli("audit", "--scheme", golden_f17_file, "--exact", "--budget", "0") == 6


def test_audit_exact_mode(tmp_path, capsys):
    build = tmp_path / "s.json"
    run_cli("build", "--U", "2", "--V", "2", "--T", "1", "--q", "5", "--out", str(build))
    capsys.readouterr()
    assert run_cli("audit", "--scheme", str(build), "--exact") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["exact_checks"]
    assert all(check["passed"] for check in report["exact_checks"])


def test_audit_q_cap_is_gone_exit_2(golden_f17_file, capsys):
    # --budget is the audit's one bound: the tuple cap is no option
    with pytest.raises(SystemExit) as exc:
        run_cli("audit", "--scheme", golden_f17_file, "--exact", "--q-cap", "1000")
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("error: unrecognized arguments: --q-cap 1000\n")


def test_audit_exact_under_defaults_decides_the_434_file(tmp_path, capsys):
    # the benchmark's (4,3,4) file at (23, 2): 3,970 checks of 23^19 tuples
    # each fit the default budget, and 10 server checks fail
    from test_output_pins import VANDERMONDE_434

    path = tmp_path / "b434.json"
    path.write_text(json.dumps(VANDERMONDE_434))
    assert run_cli("audit", "--scheme", str(path), "--exact") == 5
    checks = json.loads(capsys.readouterr().out)["exact_checks"]
    assert len(checks) == 3970
    assert sum(not check["passed"] for check in checks) == 10


def test_audit_exact_past_the_written_integer_limit_exit_6(tmp_path, capsys):
    # 180 users and one column over a 25-digit prime: each verdict would
    # count q^181 tuples, a number of 4,345 digits, more than Python 3.11+
    # writes; the sweep refuses before any check, whatever the interpreter
    q = next_prime(10**24)
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({
        "U": 2, "V": 90, "T": 0, "q": q,
        "H": {"q": q, "rows": 180, "cols": 1, "data": [1] * 179 + [q - 179]},
        "row_index": [[f"{u},{v}", 90 * (u - 1) + v - 1] for u in (1, 2) for v in range(1, 91)],
    }))
    assert run_cli("audit", "--scheme", str(path), "--exact") == 6
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: exact sweep")


def test_audit_exact_whole_sweep_budget_exit_6(tmp_path):
    # the walk's 4,223 sets fit a budget of 5,000; the sweep's 12,285 checks do not
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({
        "U": 2, "V": 6, "T": 11, "q": 2,
        "H": {"q": 2, "rows": 12, "cols": 1, "data": [1] * 12},
        "row_index": [[f"{u},{v}", 6 * (u - 1) + v - 1] for u in (1, 2) for v in range(1, 7)],
    }))
    proc = run_process(
        ["-m", "hsagg.cli", "audit", "--scheme", str(path), "--exact", "--budget", "5000"],
        tmp_path, 20,
    )
    assert proc.returncode == 6, proc.stderr
    assert proc.stderr.count("\n") == 1 and "exact sweep" in proc.stderr


@pytest.mark.parametrize("rows, cols", [(10**9, 10**9), (2, 2 * 10**12)])
def test_audit_oversized_matrix_fails_fast(tmp_path, rows, cols):
    # the declared shape is checked against the data before anything is allocated
    path = tmp_path / "scheme.json"
    path.write_text(json.dumps({
        "U": 2, "V": 1, "T": 0, "q": 5,
        "H": {"q": 5, "rows": rows, "cols": cols, "data": [1, 4]},
        "row_index": [["1,1", 0], ["2,1", 1]],
    }))
    proc = run_process(["-m", "hsagg.cli", "audit", "--scheme", str(path)], tmp_path, 20)
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr.count("\n") == 1 and "matrix needs" in proc.stderr


@pytest.mark.parametrize(
    "q, entry, code",
    [
        # a safe prime: factoring q - 1 by trial division once hung the import
        (200000000000000363, 1, 0),
        # psi_12 = 399165290221 * 798330580441, a strong pseudoprime to bases 2..37
        (318665857834031151167461, 399165290221, 4),
        # psi_13, at the bound of the deterministic primality test
        (3317044064679887385961981, 1, 4),
    ],
)
def test_audit_hostile_modulus_fails_fast(tmp_path, q, entry, code):
    path = tmp_path / "scheme.json"
    path.write_text(json.dumps({
        "U": 2, "V": 1, "T": 0, "q": q,
        "H": {"q": q, "rows": 2, "cols": 1, "data": [entry, q - entry]},
        "row_index": [["1,1", 0], ["2,1", 1]],
    }))
    proc = run_process(["-m", "hsagg.cli", "audit", "--scheme", str(path)], tmp_path, 20)
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.count("\n") == (code != 0)  # one error line, no traceback


def test_audit_hostile_collusion_budget_fails_fast(tmp_path):
    # no collusion set exceeds the UV users, so T = 10**15 audits as T = UV
    stdout = {}
    for T in (10**15, 2):
        path = tmp_path / f"T{T}.json"
        path.write_text(json.dumps({
            "U": 2, "V": 1, "T": T, "q": 5,
            "H": {"q": 5, "rows": 2, "cols": 1, "data": [1, 4]},
            "row_index": [["1,1", 0], ["2,1", 1]],
        }))
        proc = run_process(["-m", "hsagg.cli", "audit", "--scheme", str(path)], tmp_path, 20)
        assert proc.returncode == 5, proc.stderr
        stdout[T] = proc.stdout
    assert stdout[10**15] == stdout[2]


@pytest.mark.parametrize(
    "budget, error",
    [
        (None, "audit needs more than the budget of 1000000 walk nodes"),
        # a budget past 2^10000 checks: sets of 10,000 colluders are refused anyway
        (10**4000, "audit needs collusion sets of 10000 users, more than 256"),
    ],
)
def test_audit_over_budget_refuses_before_counting_every_set(tmp_path, budget, error):
    # 10,000 users and T = 10,000: the exact plan is a 3,000-digit count of
    # collusion sets; the refusal stops counting once the budget is passed
    V = 5000
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({
        "U": 2, "V": V, "T": 10000, "q": 2,
        "H": {"q": 2, "rows": 2 * V, "cols": 1, "data": [1] * (2 * V)},
        "row_index": [[f"{u},{v}", V * (u - 1) + v - 1] for u in (1, 2) for v in range(1, V + 1)],
    }))
    argv = ["-m", "hsagg.cli", "audit", "--scheme", str(path)]
    if budget is not None:
        argv += ["--budget", str(budget)]
    start = time.perf_counter()
    proc = run_process(argv, tmp_path, 20)
    assert time.perf_counter() - start < 5
    assert proc.returncode == 6, proc.stderr
    assert proc.stderr == f"error: {error}\n"


# ---------------------------------------------------------------------------
# attack
# ---------------------------------------------------------------------------


def test_attack_forced_scheme(tmp_path, capsys):
    path = tmp_path / "f.json"
    run_cli("build", "--U", "2", "--V", "2", "--T", "2", "--force-infeasible",
            "--out", str(path))
    capsys.readouterr()
    assert run_cli("attack", "--scheme", str(path), "--rounds", "100", "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["successes"] == 100
    assert payload["success_rate"] == 1.0


def test_attack_secure_scheme_still_leaks_to_oversized_collusion(golden_f3_file, capsys):
    assert run_cli("attack", "--scheme", golden_f3_file, "--rounds", "10") == 0
    assert "10/10" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["simulate", "attack"])
@pytest.mark.parametrize("length", ["0", "-3"])
def test_round_length_below_one_exit_2(golden_f3_file, capsys, command, length):
    assert run_cli(command, "--scheme", golden_f3_file, "--L", length) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: round length must be positive, got {length}\n"


def test_attack_negative_rounds_exit_2(golden_f3_file, capsys):
    assert run_cli("attack", "--scheme", golden_f3_file, "--rounds", "-2", "--json") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --rounds must be nonnegative, got -2\n"

    assert run_cli("attack", "--scheme", golden_f3_file, "--rounds", "0", "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["successes"], payload["success_rate"]) == (0, None)


def test_attack_zero_rounds_still_checks_round_length(golden_f3_file, capsys):
    argv = ["attack", "--scheme", golden_f3_file, "--rounds", "0", "--L", "-5", "--json"]
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: round length must be positive, got -5\n"


# ---------------------------------------------------------------------------
# output paths
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("command", ["build", "rates", "simulate"])
def test_unwritable_output_path_exit_2(golden_f3_file, tmp_path, capsys, command):
    target = tmp_path / "missing" / "x.json"
    argv = {
        "build": ["build", "--U", "2", "--V", "2", "--T", "1", "--out"],
        "rates": ["rates", "--U", "2", "--V", "2", "--T", "1", "--out"],
        "simulate": ["simulate", "--scheme", golden_f3_file, "--transcript"],
    }[command]
    assert run_cli(*argv, str(target)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(target) in captured.err
    assert not target.exists()


@pytest.mark.parametrize("command", ["build", "rates", "simulate"])
def test_empty_output_path_exit_2(golden_f3_file, tmp_path, monkeypatch, capsys, command):
    # an empty path names no file: it is refused, not read as "no output file"
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.iterdir())
    argv = {
        "build": ["build", "--U", "2", "--V", "2", "--T", "1", "--out"],
        "rates": ["rates", "--U", "2", "--V", "2", "--T", "1", "--out"],
        "simulate": ["simulate", "--scheme", golden_f3_file, "--transcript"],
    }[command]
    assert run_cli(*argv, "") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert sorted(tmp_path.iterdir()) == before


def test_file_io_does_not_depend_on_the_locale(tmp_path, monkeypatch, capsys):
    # Files are read and written as UTF-8 whatever the locale: an interpreter
    # that turns every fallback on the locale's encoding into an error still
    # exits and writes exactly as an in-process run does.
    strict = ["-X", "warn_default_encoding", "-W", "error::EncodingWarning", "-m", "hsagg.cli"]
    steps = [
        (["build", "--U", "2", "--V", "2", "--T", "1", "--q", "5", "--out", "s.json"], "s.json"),
        (["audit", "--scheme", "s.json"], None),
        (["simulate", "--scheme", "s.json", "--transcript", "t.json"], "t.json"),
        (["rates", "--U", "2", "--V", "3", "--T", "1", "--out", "r.csv"], "r.csv"),
    ]
    strict_dir, plain_dir = tmp_path / "strict", tmp_path / "plain"
    strict_dir.mkdir()
    plain_dir.mkdir()
    monkeypatch.chdir(plain_dir)
    for argv, written in steps:
        proc = run_process(strict + argv, strict_dir, 60)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert main(argv) == 0
        assert proc.stdout == capsys.readouterr().out
        if written is not None:
            assert (strict_dir / written).read_bytes() == (plain_dir / written).read_bytes()


# ---------------------------------------------------------------------------
# the console script's exit
# ---------------------------------------------------------------------------


# every subcommand, and every failure class by its exit code
EXIT_STEPS = [
    (["rates", "--U", "2", "--V", "3", "--T", "1", "--out", "r.csv"], 0, "r.csv"),
    (["build", "--U", "2", "--V", "2", "--T", "1", "--q", "5", "--out", "s.json"], 0, "s.json"),
    (["simulate", "--scheme", "s.json", "--L", "3", "--transcript", "t.json"], 0, "t.json"),
    (["audit", "--scheme", "s.json"], 0, None),
    (["audit", "--scheme", "s.json", "--exact"], 0, None),
    (["attack", "--scheme", "s.json", "--rounds", "3"], 0, None),
    (["rates", "--U", "1", "--V", "3", "--T", "0"], 2, None),
    (["build", "--U", "2", "--V", "3", "--T", "3", "--out", "i.json"], 3, None),
    (["audit", "--scheme", "corrupt.json"], 4, None),
    (["audit", "--scheme", "leaky.json", "--exact"], 5, None),
    (["audit", "--scheme", "s.json", "--budget", "3"], 6, None),
]


def test_process_exits_as_main_returns(tmp_path, monkeypatch, capsys):
    # ``python -m hsagg.cli`` ends the process without interpreter teardown
    # once main() returns: its exit code, both streams and the files it
    # writes are those of main() in process
    from test_output_pins import LEAKY_311

    process_dir, main_dir = tmp_path / "process", tmp_path / "main"
    for directory in (process_dir, main_dir):
        directory.mkdir()
        (directory / "corrupt.json").write_text("{not json", encoding="utf-8")
        (directory / "leaky.json").write_text(json.dumps(LEAKY_311), encoding="utf-8")
    monkeypatch.chdir(main_dir)
    for argv, code, written in EXIT_STEPS:
        proc = run_process(["-m", "hsagg.cli", *argv], process_dir, 60)
        assert main(argv) == code
        captured = capsys.readouterr()
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, captured.out, captured.err)
        if written is not None:
            assert (process_dir / written).read_bytes() == (main_dir / written).read_bytes()


def test_closed_pipe_exits_as_a_normal_exit_does(tmp_path):
    # stdout's read end is closed, so the flush before the hard exit fails;
    # the process then exits as sys.exit(main()) does: 120, with Python's
    # report of the failed flush on stderr
    argv = ["rates", "--U", "3", "--V", "2", "--T", "2"]
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(ROOT / "src")
    results = []
    for command in (
        ["-m", "hsagg.cli", *argv],
        ["-c", f"import sys; from hsagg.cli import main; sys.exit(main({argv!r}))"],
    ):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, *command], cwd=tmp_path, env=env, stdout=write_end,
                stderr=subprocess.PIPE, text=True, timeout=60,
            )
        finally:
            os.close(write_end)
        results.append((proc.returncode, proc.stderr))
    assert results[0] == results[1]
    assert results[0][0] == 120 and "BrokenPipeError" in results[0][1]


# ---------------------------------------------------------------------------
# --pretty
# ---------------------------------------------------------------------------


PRETTY_ARGV = {
    "rates": ["rates", "--sweep", "U=2..3", "V=1..2", "T=0..2", "--json"],
    "build": ["build", "--U", "2", "--V", "3", "--T", "1", "--out", "s.json", "--json"],
    "simulate": ["simulate", "--scheme", "f3.json", "--L", "3", "--transcript", "t.json",
                 "--json"],
    "audit": ["audit", "--scheme", "leaky.json"],
    "attack": ["attack", "--scheme", "f3.json", "--rounds", "3", "--L", "2", "--json"],
}


@pytest.mark.parametrize("command", sorted(PRETTY_ARGV))
def test_pretty_output_parses_to_the_plain_output(
    golden_f3_file, tmp_path, monkeypatch, capsys, command
):
    monkeypatch.chdir(tmp_path)
    Path("f3.json").write_text(Path(golden_f3_file).read_text())
    leaky = golden_2x3_f3_obj()
    leaky["H"]["data"] = [0] * len(leaky["H"]["data"])
    Path("leaky.json").write_text(json.dumps(leaky))
    code = 5 if command == "audit" else 0
    outputs = []
    for pretty in ([], ["--pretty"]):
        assert run_cli(*PRETTY_ARGV[command], *pretty) == code
        written = {f: Path(f).read_text() for f in ("s.json", "t.json") if Path(f).exists()}
        outputs.append((capsys.readouterr().out, written))
    (plain, plain_files), (pretty, pretty_files) = outputs
    assert pretty.count("\n") > 1 and plain.count("\n") == 1
    assert json.loads(pretty) == json.loads(plain)
    assert pretty_files.keys() == plain_files.keys()
    for name, text in pretty_files.items():
        assert text != plain_files[name]
        if name == "s.json":  # the pretty scheme file imports to the same scheme
            assert scheme_to_json(import_scheme(json.loads(text))) == plain_files[name]
        else:
            assert json.loads(text) == json.loads(plain_files[name])


# ---------------------------------------------------------------------------
# options
# ---------------------------------------------------------------------------


# every subcommand's options, sorted, each as (option strings, required, default)
OPTIONS = {
    "rates": [
        ("--T", False, None), ("--U", False, None), ("--V", False, None),
        ("--json", False, False), ("--out", False, None), ("--pretty", False, False),
        ("--sweep", False, None),
    ],
    "build": [
        ("--T", True, None), ("--U", True, None), ("--V", True, None),
        ("--baseline", False, False), ("--force-infeasible", False, False),
        ("--json", False, False), ("--out", True, None), ("--pretty", False, False),
        ("--q", False, None),
    ],
    "simulate": [
        ("--L", False, 1), ("--json", False, False), ("--pretty", False, False),
        ("--scheme", True, None), ("--seed", False, 1234), ("--transcript", False, None),
    ],
    "audit": [
        ("--budget", False, 1_000_000), ("--exact", False, False), ("--pretty", False, False),
        ("--scheme", True, None),
    ],
    "attack": [
        ("--L", False, 1), ("--json", False, False), ("--pretty", False, False),
        ("--rounds", False, 100), ("--scheme", True, None), ("--seed", False, 1234),
    ],
}


def test_subcommand_options_are_pinned():
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(OPTIONS)
    for name, subparser in sub.choices.items():
        options = sorted(
            ("/".join(a.option_strings), a.required, a.default)
            for a in subparser._actions if a.dest != "help"
        )
        assert options == OPTIONS[name], name


# ---------------------------------------------------------------------------
# the fast path: well-formed argv parsed without argparse
# ---------------------------------------------------------------------------


# the commands bench/run.py times, and the well-formed ones of the CI workflow
BENCH_ARGV = [
    ["build", "--U", "4", "--V", "4", "--T", "6", "--out", "scheme.json", "--json"],
    ["build", "--U", "6", "--V", "3", "--T", "5", "--q", "101", "--out", "scheme.json", "--json"],
    ["audit", "--scheme", "inputs/certified.json"],
    ["audit", "--scheme", "inputs/external.json", "--exact"],
    ["simulate", "--scheme", "inputs/scheme.json", "--L", "5000", "--seed", "1",
     "--transcript", "transcript.json", "--json"],
]
CI_ARGV = [
    ["rates", "--U", "2", "--V", "3", "--T", "1"],
    ["build", "--U", "2", "--V", "2", "--T", "1", "--q", "5", "--out", "s.json"],
    ["build", "--U", "4", "--V", "4", "--T", "6", "--out", "b.json", "--json"],
    ["build", "--U", "6", "--V", "3", "--T", "5", "--q", "101", "--out", "b.json", "--json"],
    ["build", "--U", "5", "--V", "4", "--T", "8", "--q", "100003", "--out", "big.json"],
    ["audit", "--scheme", "big.json"],
    ["audit", "--scheme", "s.json"],
    ["audit", "--scheme", "s.json", "--exact"],
    ["audit", "--scheme", "leaky.json", "--exact"],
    ["audit", "--scheme", "b434.json", "--exact"],
    ["audit", "--scheme", "s.json", "--exact", "--budget", "14"],
]


def _argv_in_this_file():
    """Every argv written out in this file, each item that is computed (a path,
    a parametrized value) read as "s.json"."""
    for node in ast.walk(ast.parse(Path(__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "run_cli":
            items = node.args
        elif isinstance(node, ast.List):
            items = node.elts
        else:
            continue
        words = [
            item.value if isinstance(item, ast.Constant) and isinstance(item.value, str)
            else "s.json"
            for item in items if not isinstance(item, ast.Starred)
        ]
        starts = [i for i, word in enumerate(words) if word in cli._COMMANDS]
        if starts:
            yield words[starts[0]:]


def _readme_argv():
    readme = ROOT / "README.md"
    return [shlex.split(line)[1:] for line in readme.read_text(encoding="utf-8").splitlines()
            if line.startswith("hsa ")]


def _mutations(argv):
    """argv, then argv spelled in each way the fast path leaves to argparse."""
    yield argv
    yield [*argv, "--bogus"]
    yield [*argv, "-h"]
    for i, token in enumerate(argv):
        if not token.startswith("--"):
            continue
        before, after = argv[:i], argv[i + 1:]
        yield [*before, token[:-1], *after]  # abbreviated, or "--" for --U
        yield [*argv, token]  # repeated
        if after and not after[0].startswith("-"):
            yield [*before, f"{token}={after[0]}", *after[1:]]
            yield [*before, token, *after[1:]]  # its value missing
            yield [*before, *after[1:]]  # the option missing
            yield [*argv, token, after[0]]  # repeated with its value
            for value in ("-1", "-", ""):
                yield [*before, token, value, *after[1:]]


def test_fast_path_parses_as_argparse_does():
    parametrized = [
        [command, "--scheme", "s.json", *extra]
        for command in ("simulate", "audit", "attack")
        for extra in ([], ["--L", "0"], ["--L", "-3"], ["--rounds", "0"])
    ] + [
        ["build", "--U", "2", "--V", "2", "--T", "1", "--q", q, *extra, "--out", "s.json"]
        for q in ("-7", "0", "1") for extra in ([], ["--baseline"])
    ] + [
        ["audit", "--scheme", "s.json", "--exact", "--budget", value] for value in ("-1", "0")
    ]
    corpus = [*_argv_in_this_file(), *_readme_argv(), *BENCH_ARGV, *CI_ARGV, *parametrized,
              [], ["bogus"], ["-h"], ["--help"], ["--bogus"], ["audit", "--sch", "s.json"]]
    assert len(corpus) > 100
    parser = cli._build_parser()
    parsed = declined = 0
    for argv in sorted({tuple(m) for argv in corpus for m in _mutations(argv)}):
        fast = cli._fast_args(list(argv))
        if fast is None:
            declined += 1
            continue
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                expected = parser.parse_args(list(argv))
        except SystemExit:
            pytest.fail(f"the fast path parsed {argv}, which argparse rejects")
        assert vars(fast) == vars(expected), argv
        parsed += 1
    assert parsed > 100 and declined > 1000
    for argv in BENCH_ARGV + CI_ARGV:
        assert cli._fast_args(argv) is not None, argv


def test_declined_argv_goes_to_argparse(golden_f17_file, capsys):
    assert run_cli("audit", "--scheme", golden_f17_file) == 0
    report = capsys.readouterr().out
    for argv in (["audit", "--sch", golden_f17_file], ["audit", f"--scheme={golden_f17_file}"]):
        assert cli._fast_args(argv) is None
        assert run_cli(*argv) == 0
        assert capsys.readouterr().out == report
    with pytest.raises(SystemExit) as exc:
        run_cli("audit")
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: hsa audit")
    assert err.endswith("error: the following arguments are required: --scheme\n")


# ---------------------------------------------------------------------------
# benchmark tracer
# ---------------------------------------------------------------------------


def test_bench_tracer_finds_every_wrapped_name(tmp_path):
    # bench/tracer.py wraps library functions by name; deleting one breaks it.
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"commands": []}))
    tracer = ROOT / "bench" / "tracer.py"
    proc = run_process([str(tracer), str(spec), str(tmp_path / "out.json")], tmp_path, 60)
    assert proc.returncode == 0, proc.stderr


def test_bench_tracer_runs_an_audit(tmp_path):
    # one traced command each: the wrapped audit must be the one the CLI
    # calls, and the walk and the exact oracle read every observer's rows
    # from the condition-matrix builders, which the tracer counts: the
    # audit once per observer, and --exact once more per check, U relay
    # checks and one server check for each of the 5 sets of at most 1 user;
    # the sweep decides its 15 checks through the name the tracer wraps
    scheme = build_scheme(HsaConfig(2, 2, 1))
    (tmp_path / "scheme.json").write_text(scheme_to_json(scheme))
    tracer = ROOT / "bench" / "tracer.py"
    for flags, relay_calls, server_calls, exact_calls in (
        ([], 2, 1, 0), (["--exact"], 12, 6, 15),
    ):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"commands": [
            {"argv": ["audit", "--scheme", "scheme.json", *flags], "cwd": str(tmp_path)},
        ]}))
        out = tmp_path / "out.json"
        proc = run_process([str(tracer), str(spec), str(out)], tmp_path, 60)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(out.read_text())
        assert [c["exit"] for c in result["commands"]] == [0]
        stats = result["stats"]
        assert stats["security.audit"][0] == 1
        assert stats["security.relay_condition_matrix"][0] == relay_calls
        assert stats["security.server_condition_matrix"][0] == server_calls
        assert stats["security.exact"][0] == exact_calls
        assert result["counters"]["relay.checks"] == relay_calls
