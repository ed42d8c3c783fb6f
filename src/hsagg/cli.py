"""Command-line front end: build schemes, simulate rounds, audit, attack.

Exit codes partition the failure classes so CI can assert boundaries as
process behavior:

    0  success / clean audit
    2  domain error (bad configuration or ranges, unwritable output path)
    3  infeasible configuration (T >= (U-1)*V)
    4  corrupt or malformed scheme / transcript
    5  security violation found by an audit
    6  enumeration budget exceeded
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from collections.abc import Sequence

from . import protocol, rates, schemes, security
from .errors import (
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

DEFAULT_SEED = 1234


def _dump(obj, pretty: bool) -> str:
    return json.dumps(obj, sort_keys=True, indent=2 if pretty else None) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _report(args, obj, text: str, out: str | None = None) -> None:
    """Emit ``obj`` as JSON under --json, else ``text``."""
    _emit(_dump(obj, args.pretty) if args.json else text, out)


def _load_scheme(path: str) -> schemes.CoefficientScheme:
    try:
        obj = json.loads(Path(path).read_text())
    # ValueError covers bad JSON, bytes that do not decode and integers past
    # the int-string limit; RecursionError, nesting past the recursion limit.
    except (OSError, ValueError, RecursionError) as exc:
        raise SchemeFormatError(f"cannot read scheme file {path}: {exc}") from exc
    return schemes.import_scheme(obj)


def _parse_range(token: str, key: str) -> range:
    prefix = key + "="
    if not token.startswith(prefix):
        raise ConfigurationError(f"expected {key}=lo..hi, got {token!r}")
    body = token[len(prefix):]
    try:
        if ".." in body:
            lo, hi = body.split("..")
            return range(int(lo), int(hi) + 1)
        value = int(body)
        return range(value, value + 1)
    except ValueError as exc:
        raise ConfigurationError(f"bad range {token!r}") from exc


def cmd_rates(args) -> int:
    if args.sweep:
        if len(args.sweep) != 3:
            raise ConfigurationError("--sweep takes exactly U=lo..hi V=lo..hi T=lo..hi")
        u_range = _parse_range(args.sweep[0], "U")
        v_range = _parse_range(args.sweep[1], "V")
        t_range = _parse_range(args.sweep[2], "T")
    else:
        if args.U is None or args.V is None or args.T is None:
            raise ConfigurationError("provide --U --V --T or --sweep")
        u_range = range(args.U, args.U + 1)
        v_range = range(args.V, args.V + 1)
        t_range = range(args.T, args.T + 1)
    rows = rates.rate_table(u_range, v_range, t_range)
    if args.json:
        _emit(_dump([r.to_json_obj() for r in rows], args.pretty), args.out)
    else:
        _emit(rates.rate_table_csv(rows), args.out)
    return EXIT_OK


def cmd_build(args) -> int:
    cfg = HsaConfig(args.U, args.V, args.T)
    if args.force_infeasible:
        scheme = schemes.build_baseline(cfg, q_hint=args.q, force_infeasible=True)
    elif args.baseline:
        scheme = schemes.build_baseline(cfg, q_hint=args.q)
    else:
        scheme = schemes.build_scheme(cfg, q_hint=args.q)
    Path(args.out).write_text(schemes.scheme_to_json(scheme, pretty=args.pretty))
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
    scheme = _load_scheme(args.scheme)
    inputs, keys = protocol.sample_round(scheme, args.L, args.seed)
    transcript = protocol.run_round(scheme, inputs, keys)
    observed = protocol.measure_rates(transcript)
    if args.transcript:
        Path(args.transcript).write_text(
            _dump(protocol.transcript_to_json_obj(transcript, args.scheme), args.pretty)
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
    for flag, value in (("--budget", args.budget), ("--q-cap", args.q_cap)):
        if value < 0:
            raise ConfigurationError(f"{flag} must be nonnegative, got {value}")
    scheme = _load_scheme(args.scheme)
    report = security.audit(scheme, budget=args.budget)
    obj = report.to_json_obj()
    failed = not report.passed
    if args.exact:
        verdicts = security.exact_sweep(scheme, args.q_cap)
        obj["exact_checks"] = [v.to_json_obj() for v in verdicts]
        failed = failed or any(not v.passed for v in verdicts)
    print(_dump(obj, args.pretty), end="")
    return EXIT_INSECURE if failed else EXIT_OK


def cmd_attack(args) -> int:
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


def cmd_compare(args) -> int:
    cfg = HsaConfig(args.U, args.V, args.T)
    optimal = rates.optimal_source_rate(cfg)
    baseline = rates.baseline_source_rate(cfg)
    gap = baseline - optimal
    _report(
        args,
        {
            "U": cfg.U,
            "V": cfg.V,
            "T": cfg.T,
            "optimal_R_Zsigma": optimal,
            "baseline_R_Zsigma": baseline,
            "gap": gap,
        },
        f"U={cfg.U} V={cfg.V} T={cfg.T}\noptimal_R_Zsigma={optimal}\n"
        f"baseline_R_Zsigma={baseline}\ngap={gap}\n",
    )
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hsa",
        description="Hierarchical secure aggregation: build, simulate and audit schemes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rates", help="evaluate the optimal rate region")
    p.add_argument("--U", type=int)
    p.add_argument("--V", type=int)
    p.add_argument("--T", type=int)
    p.add_argument("--sweep", nargs="+", metavar="K=lo..hi",
                   help="grid sweep, e.g. --sweep U=2..4 V=1..3 T=0..6")
    p.add_argument("--out", help="write to file instead of stdout")
    p.add_argument("--json", action="store_true")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=cmd_rates)

    p = sub.add_parser("build", help="build and persist a scheme")
    p.add_argument("--U", type=int, required=True)
    p.add_argument("--V", type=int, required=True)
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--q", type=int, help="starting prime for the field search")
    p.add_argument("--baseline", action="store_true", help="naive per-user keying comparator")
    p.add_argument("--force-infeasible", action="store_true",
                   help="materialize an out-of-region scheme for attack demos")
    p.add_argument("--out", required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("simulate", help="run one aggregation round")
    p.add_argument("--scheme", required=True)
    p.add_argument("--L", type=int, default=1, help="symbols per input")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--transcript", help="write the round transcript to this file")
    p.add_argument("--json", action="store_true")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("audit", help="exhaustive security audit of a scheme file")
    p.add_argument("--scheme", required=True)
    p.add_argument("--exact", action="store_true",
                   help="additionally run the brute-force independence oracle")
    p.add_argument("--q-cap", type=int, default=security.DEFAULT_ENUMERATION_CAP,
                   help="cap on the exact oracle's whole sweep: checks x q^(UV+n) tuples")
    p.add_argument("--budget", type=int, default=security.DEFAULT_RANK_BUDGET,
                   help="rank-check cap for the audit")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("attack", help="run the oversized-collusion recovery attack")
    p.add_argument("--scheme", required=True)
    p.add_argument("--rounds", type=int, default=100)
    p.add_argument("--L", type=int, default=1)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--json", action="store_true")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("compare", help="optimal vs baseline source key rate")
    p.add_argument("--U", type=int, required=True)
    p.add_argument("--V", type=int, required=True)
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except InfeasibleConfiguration as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (SchemeFormatError, CorrectnessViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CORRUPT
    except AuditBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
