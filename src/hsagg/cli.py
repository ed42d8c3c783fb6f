"""Command-line front end: build schemes, simulate rounds, audit, attack.

Exit codes partition the failure classes so CI can assert boundaries as
process behavior:

    0  success / clean audit
    2  domain error (bad configuration or ranges, unwritable output path)
    3  infeasible configuration (T >= (U-1)*V)
    4  corrupt or malformed scheme / transcript
    5  security violation found by an audit
    6  budget exceeded

``run()``, the ``hsa`` console script and ``python -m hsagg.cli``, ends the
process with ``os._exit`` once ``main()`` has returned and both streams are
flushed: tearing the interpreter down writes nothing and costs several
milliseconds, a large share of a short command.  A flush that fails falls
back to a normal exit, so a closed pipe is reported as Python reports it.
``main()`` returns its exit code and leaves teardown to its caller.

Each subcommand is described once, in ``_COMMANDS``.  ``main()`` parses a
well-formed command line from it without argparse, which costs a short
command several milliseconds, and builds the argparse parser from it only
for help and the command lines it declines, so help and errors stay argparse's.
"""

from __future__ import annotations

import json
import os
import sys
from collections.abc import Sequence
from types import SimpleNamespace

# The commands that run the audit or the protocol import them, so that
# build and rates load neither.
from . import rates, schemes
from .errors import (
    DEFAULT_RANK_BUDGET,
    AuditBudgetExceeded,
    ConfigurationError,
    CorrectnessViolation,
    InfeasibleConfiguration,
    SchemeFormatError,
)
from .rates import HsaConfig

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_INFEASIBLE = 3
EXIT_CORRUPT = 4
EXIT_INSECURE = 5
EXIT_BUDGET = 6

# The exit code of each failure class, checked in order by main.
_FAILURES = {
    ConfigurationError: EXIT_DOMAIN,
    OSError: EXIT_DOMAIN,
    InfeasibleConfiguration: EXIT_INFEASIBLE,
    SchemeFormatError: EXIT_CORRUPT,
    CorrectnessViolation: EXIT_CORRUPT,
    AuditBudgetExceeded: EXIT_BUDGET,
}

DEFAULT_SEED = 1234


def _dump(obj, pretty: bool) -> str:
    return json.dumps(obj, sort_keys=True, indent=2 if pretty else None) + "\n"


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def _report(args, obj, text: str, out: str | None = None) -> None:
    """Write ``obj`` as JSON under --json, else ``text``, to ``out`` or stdout."""
    text = _dump(obj, args.pretty) if args.json else text
    if out is not None:
        _write(out, text)
    else:
        sys.stdout.write(text)


def _load_scheme(path: str) -> schemes.CoefficientScheme:
    try:
        with open(path, encoding="utf-8") as f:
            obj = json.load(f)
    # ValueError covers bad JSON, bytes that do not decode and integers past
    # the int-string limit; RecursionError, nesting past the recursion limit.
    except (OSError, ValueError, RecursionError) as exc:
        raise SchemeFormatError(f"cannot read scheme file {path}: {exc}") from exc
    return schemes.import_scheme(obj)


def _int_range(token: str) -> range:
    """``N`` or ``lo..hi`` as the nonempty inclusive range it names, else ValueError."""
    lo, dots, hi = token.partition("..")
    span = range(int(lo), int(hi if dots else lo) + 1)
    if not span:
        raise ValueError(token)
    return span


def cmd_rates(args) -> int:
    rows = rates.rate_table(args.U, args.V, args.T)
    if args.json:  # only the format written is built
        _report(args, [r.to_json_obj() for r in rows], "", args.out)
    else:
        _report(args, None, rates.rate_table_csv(rows), args.out)
    return EXIT_OK


def cmd_build(args) -> int:
    cfg = HsaConfig(args.U, args.V, args.T)
    if args.baseline or args.force_infeasible:
        scheme = schemes.build_baseline(cfg, args.q, args.force_infeasible)
    else:
        scheme = schemes.build_scheme(cfg, q_hint=args.q)
    _write(args.out, schemes.scheme_to_json(scheme, pretty=args.pretty))
    gamma = scheme.params.gamma
    _report(
        args,
        {
            "out": args.out,
            "kind": scheme.kind,
            "q": scheme.field.q,
            "gamma": gamma,
            "n_source": scheme.n_source,
        },
        f"wrote {args.out} (kind={scheme.kind} q={scheme.field.q} "
        f"gamma={gamma if gamma is not None else '-'} n_source={scheme.n_source})\n",
    )
    return EXIT_OK


def cmd_simulate(args) -> int:
    from . import protocol

    scheme = _load_scheme(args.scheme)
    inputs, keys = protocol.sample_round(scheme, args.L, args.seed)
    transcript = protocol.run_round(scheme, inputs, keys)
    observed = protocol.measure_rates(scheme, transcript)
    if args.transcript is not None:
        _write(
            args.transcript,
            _dump(protocol.transcript_to_json_obj(transcript, args.scheme), args.pretty),
        )
    _report(
        args,
        {
            "scheme": args.scheme,
            "L": args.L,
            "seed": args.seed,
            "decoded": list(transcript.decoded),
            "rates": {
                "R_X": observed.R_X,
                "R_Y": observed.R_Y,
                "R_Z": observed.R_Z,
                "R_Zsigma": observed.R_Z_sigma,
            },
        },
        f"decoded_sum={list(transcript.decoded)}\n"
        f"rates R_X={observed.R_X} R_Y={observed.R_Y} "
        f"R_Z={observed.R_Z} R_Zsigma={observed.R_Z_sigma}\n",
    )
    return EXIT_OK


def cmd_audit(args) -> int:
    from . import security

    if args.budget < 0:
        raise ConfigurationError(f"--budget must be nonnegative, got {args.budget}")
    scheme = _load_scheme(args.scheme)
    report = security.audit(scheme, budget=args.budget)
    obj = report.to_json_obj()
    failed = not report.passed
    if args.exact:
        verdicts = security.exact_sweep(scheme, args.budget)
        obj["exact_checks"] = [v.to_json_obj() for v in verdicts]
        failed = failed or any(not v.passed for v in verdicts)
    _report(args, obj, "")
    return EXIT_INSECURE if failed else EXIT_OK


def cmd_attack(args) -> int:
    from . import protocol, security

    if args.rounds < 0:
        raise ConfigurationError(f"--rounds must be nonnegative, got {args.rounds}")
    if args.L <= 0:  # zero rounds never reach sample_round's own check
        raise ConfigurationError(f"round length must be positive, got {args.L}")
    scheme = _load_scheme(args.scheme)
    successes = 0
    for i in range(args.rounds):
        inputs, keys = protocol.sample_round(scheme, args.L, args.seed + i)
        transcript = protocol.run_round(scheme, inputs, keys)
        security.infeasibility_attack(scheme, transcript)
        successes += 1
    _report(
        args,
        {
            "scheme": args.scheme,
            "rounds": args.rounds,
            "successes": successes,
            "success_rate": successes / args.rounds if args.rounds else None,
        },
        f"recovered cluster-1 input sum in {successes}/{args.rounds} rounds "
        f"(colluding with all {(scheme.cfg.U - 1) * scheme.cfg.V} inter-cluster users)\n",
    )
    return EXIT_OK


def _shape(parse) -> list:
    return [("--" + key, {"type": parse, "required": True}) for key in "UVT"]


_JSON = ("--json", {"action": "store_true"})
_PRETTY = ("--pretty", {"action": "store_true"})

# Each subcommand once: its summary, the namespace defaults that name its
# function, and its options in help order, each a flag with the keywords of
# argparse's add_argument.  _build_parser hands them to argparse; _fast_args
# reads action (only ever store_true), type, default and required.
_COMMANDS = {
    "rates": ("evaluate the optimal rate region", {"func": cmd_rates}, [
        *_shape(_int_range),
        ("--out", {"help": "write to file instead of stdout"}),
        _JSON, _PRETTY,
    ]),
    "build": ("build and persist a scheme", {"func": cmd_build}, [
        *_shape(int),
        ("--q", {"type": int, "help": "starting prime for the field search"}),
        ("--baseline", {"action": "store_true", "help": "naive per-user keying comparator"}),
        ("--force-infeasible", {"action": "store_true",
                                "help": "materialize an out-of-region scheme for attack demos"}),
        ("--out", {"required": True}),
        _JSON, _PRETTY,
    ]),
    "simulate": ("run one aggregation round", {"func": cmd_simulate}, [
        ("--scheme", {"required": True}),
        ("--L", {"type": int, "default": 1, "help": "symbols per input"}),
        ("--seed", {"type": int, "default": DEFAULT_SEED}),
        ("--transcript", {"help": "write the round transcript to this file"}),
        _JSON, _PRETTY,
    ]),
    # the audit report is always JSON, so audit has no --json
    "audit": ("exhaustive security audit of a scheme file", {"func": cmd_audit, "json": True}, [
        ("--scheme", {"required": True}),
        ("--exact", {"action": "store_true",
                     "help": "additionally decide each check's zero conditional MI exactly"}),
        ("--budget", {"type": int, "default": DEFAULT_RANK_BUDGET, "help":
                      "cap on the collusion sets the walk visits and, with --exact, "
                      "on the checks the oracle decides"}),
        _PRETTY,
    ]),
    "attack": ("run the oversized-collusion recovery attack", {"func": cmd_attack}, [
        ("--scheme", {"required": True}),
        ("--rounds", {"type": int, "default": 100}),
        ("--L", {"type": int, "default": 1}),
        ("--seed", {"type": int, "default": DEFAULT_SEED}),
        _JSON, _PRETTY,
    ]),
}


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _fast_args(argv: Sequence[str]) -> SimpleNamespace | None:
    """The namespace argparse gives ``argv``, or None to leave ``argv`` to argparse.

    Parsed here: a command, then options spelled in full as ``--flag`` or
    ``--flag value``, each value not starting with "-" and converting with
    the option's type, every required option given.  Anything else, help
    and errors included, is argparse's.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, defaults, options = _COMMANDS[argv[0]]
    args = {"command": argv[0], **defaults}
    for flag, keywords in options:
        args[_dest(flag)] = keywords.get("default", False if "action" in keywords else None)
    flags = dict(options)
    missing = {flag for flag, keywords in options if keywords.get("required")}
    tokens = iter(argv[1:])
    for flag in tokens:
        keywords = flags.get(flag)
        if keywords is None:
            return None
        missing.discard(flag)
        if "action" in keywords:
            args[_dest(flag)] = True
            continue
        value = next(tokens, "-")  # a missing value is argparse's error
        if value.startswith("-"):
            return None
        try:
            args[_dest(flag)] = keywords.get("type", str)(value)
        except ValueError:
            return None
    return None if missing else SimpleNamespace(**args)


def _build_parser():
    """The argparse parser for ``_COMMANDS``: help, and argv the fast path declines."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="hsa",
        description="Hierarchical secure aggregation: build, simulate and audit schemes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, defaults, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        p.set_defaults(**defaults)
        for flag, keywords in options:
            p.add_argument(flag, **keywords)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _fast_args(argv) or _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(_FAILURES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _FAILURES.items() if isinstance(exc, cls))


def run() -> None:
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        raise SystemExit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
