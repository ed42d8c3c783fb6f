"""Traced run: call ``hsagg.cli.main`` in-process with every layer wrapped.

    python bench/tracer.py SPEC.json OUT.json

SPEC holds ``{"commands": [{"argv": [...], "cwd": "..."}]}``.  Each command
runs in its own working directory with stdout captured.  OUT receives the
exit codes and stdout of the commands, the spans, per-function call
statistics and counters.

Wrappers are installed at the name each caller looks up: ``from .fields
import f`` binds ``f`` in the caller's module, so the calls that matter are
patched there (``hsagg.schemes.extended_vandermonde_subdet``,
``hsagg.protocol.derive_keys``), and methods are patched on their class.
Coarse calls become spans that record their parent; hot leaves (the MDS
subdeterminants, ranks, dot products) are only counted and timed, in total
and under the enclosing span, to keep the overhead small.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import os
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self):
        self.base = perf_counter()
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters: Counter = Counter()
        self.spans: list[dict] = []
        self._child_time = [[0.0]]  # one accumulator per active wrapped call
        self._open = [{"id": None, "name": None, "leaves": {}}]  # enclosing spans

    def wrap(self, owner, attr: str, name: str, span: bool = False, after=None) -> None:
        """Replace owner.attr by a timing wrapper; ``after(args, result, dt)`` runs on return."""
        static = inspect.getattr_static(owner, attr)
        fn = getattr(owner, attr)  # bound for classmethods
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        child_time, open_spans, spans = self._child_time, self._open, self.spans

        def wrapper(*args, **kwargs):
            frame = [0.0]
            child_time.append(frame)
            if span:
                rec = {"id": len(spans), "parent": open_spans[-1]["id"], "name": name, "leaves": {}}
                spans.append(rec)
                open_spans.append(rec)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child_time.pop()
                child_time[-1][0] += dt
                self_s = dt - frame[0]
                stat[0] += 1
                stat[1] += dt
                stat[2] += self_s
                if span:
                    open_spans.pop()
                    rec.update(start=t0 - self.base, end=t0 + dt - self.base, self_s=self_s)
                else:
                    leaf = open_spans[-1]["leaves"].setdefault(name, [0, 0.0])
                    leaf[0] += 1
                    leaf[1] += dt
            if after is not None:
                after(args, result, dt)
            return result

        if isinstance(static, (classmethod, staticmethod)):
            wrapper = staticmethod(wrapper)
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        import hsagg.cli
        from hsagg import fields, protocol, schemes, security

        c = self.counters

        def tag(kind):
            def after(args, matrix, dt):
                object.__setattr__(matrix, "_bench_kind", kind)
                c[kind + ".build_s"] += dt
                c[kind + ".checks"] += 1
            return after

        def after_rank(args, r, dt):
            m = args[0]
            c["rank.rows"] += m.rows
            kind = m.__dict__.get("_bench_kind")
            if kind:
                c[kind + ".rank_s"] += dt
                if r < m.rows:
                    c[kind + ".violations"] += 1

        def after_search(args, gamma, dt):
            if gamma is not None:
                c["search.certified"] += 1

        def after_elements(args, xs, dt):
            if self._open[-1]["name"] == "schemes.search_gamma":
                c["search.gammas_tried"] += 1

        def after_audit(args, report, dt):
            certified = args[0].kind == schemes.KIND_EXTENDED_VANDERMONDE
            c["audit.certified_s" if certified else "audit.external_s"] += dt

        def after_exact(args, verdict, dt):
            c["exact.tuples"] += verdict.tuples_enumerated

        def after_sample(args, result, dt):
            c["protocol.symbols"] += sum(len(w) for w in result[0].W.values())

        self.wrap(hsagg.cli, "main", "cli.main", span=True)
        self.wrap(schemes, "build_scheme", "schemes.build_scheme", span=True)
        self.wrap(schemes, "search_gamma", "schemes.search_gamma", span=True, after=after_search)
        self.wrap(schemes, "import_scheme", "schemes.import_scheme", span=True)
        self.wrap(schemes, "scheme_to_json", "schemes.scheme_to_json", span=True)
        self.wrap(schemes, "build_elements", "schemes.build_elements", after=after_elements)
        self.wrap(schemes, "extended_vandermonde_subdet", "fields.subdet")
        self.wrap(schemes, "extended_vandermonde", "fields.extended_vandermonde")
        self.wrap(fields.FieldSpec, "for_prime", "fields.for_prime")
        self.wrap(fields.FieldSpec, "dot", "fields.dot")
        self.wrap(fields.FqMatrix, "from_rows", "fields.from_rows")
        self.wrap(fields.FqMatrix, "from_json_obj", "fields.from_json_obj")
        self.wrap(fields.FqMatrix, "rank", "fields.rank", after=after_rank)
        self.wrap(security, "audit", "security.audit", span=True, after=after_audit)
        self.wrap(security, "relay_condition_matrix", "security.relay_condition_matrix",
                  after=tag("relay"))
        self.wrap(security, "server_condition_matrix", "security.server_condition_matrix",
                  after=tag("server"))
        self.wrap(security, "exact_independence_check", "security.exact", span=True,
                  after=after_exact)
        self.wrap(protocol, "derive_keys", "schemes.derive_keys")
        self.wrap(protocol, "sample_round", "protocol.sample_round", span=True, after=after_sample)
        self.wrap(protocol, "run_round", "protocol.run_round", span=True)
        self.wrap(protocol, "measure_rates", "protocol.measure_rates", span=True)
        self.wrap(protocol, "transcript_to_json_obj", "protocol.transcript_to_json_obj", span=True)


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    t0 = perf_counter()
    import hsagg.cli
    startup_s = perf_counter() - t0

    tracer = Tracer()
    tracer.install()
    commands = []
    for cmd in spec["commands"]:
        os.chdir(cmd["cwd"])
        out = io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(out):
            try:
                code = hsagg.cli.main(cmd["argv"])
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash fails this command, as it would its own process
                traceback.print_exc()
                code = 1
        commands.append({"exit": code, "stdout": out.getvalue(), "wall_s": perf_counter() - t0})

    Path(sys.argv[2]).write_text(json.dumps({
        "startup_s": startup_s,
        "commands": commands,
        "stats": tracer.stats,
        "counters": tracer.counters,
        "spans": tracer.spans,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
