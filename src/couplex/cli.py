"""Command-line interface.

Subcommands
-----------
``check-monotone``
    Decide whether a model preserves the componentwise order.
``coupling-table``
    Build one coupling table for an explicit configuration pair.
``exact``
    Finite-ring checks: stationary weights, coupling audits, extinction.
``simulate``
    Sample single or coupled trajectories.
``golden-suite``
    Run the acceptance battery.
``zoo``
    List the built-in models.

Every subcommand accepts ``--config FILE`` (INI, see :mod:`couplex.config`);
explicit flags override file values.  ``couplex --config FILE`` alone runs
the command named inside the file.  Exit status: 0 for success with a
positive verdict, 1 when the run succeeded but the verdict is negative
(model not monotone, audit violations, failed criteria, broken pathwise
invariants), 2 for usage, configuration, or runtime errors.  A setting the
run does not read (``_READS``), from a flag or a file key, is such an error,
with one diagnostic per setting, raised before any work.

Files are written atomically (temporary file in the target directory, then
rename), and CSV output for a fixed seed is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile
import warnings

import numpy as np

from .config import (
    COMMANDS,
    FORMATS,
    SECTIONS,
    TASKS,
    ConfigError,
    Diagnostic,
    RunConfig,
    build_spec,
    check_value,
    format_number,
    load_config,
    parse_param_value,
)
from .coupling import KINDS, coupling_table
from .exact import (
    audit_discrepancy_monotone,
    audit_order_preservation,
    discrepancy_extinction,
    single_generator,
    stationary_distributions,
)
from .golden import run_suite
from .lattice import format_configuration, parse_configuration
from .models import model_ids, model_parameter_names, model_signature
from .monotone import is_monotone, strictness_report
from .simulate import (
    OBSERVABLES,
    observable_report,
    random_configuration,
    simulate_coupled,
    simulate_single,
)

OK, NEGATIVE, ERROR = 0, 1, 2


# ---------------------------------------------------------------------------
# Output helpers


def _emit(text: str, path) -> None:
    """Write to stdout, or atomically replace the target file."""
    if path is None:
        sys.stdout.write(text)
        return
    target = os.path.abspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".couplex-")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _csv_text(rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    for row in rows:
        writer.writerow(row)
    return buffer.getvalue()


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, default=str) + "\n"


def _rows_payload(rows) -> list:
    header = rows[0]
    return [dict(zip(header, row)) for row in rows[1:]]


def _write_rows(rows, cfg: RunConfig) -> None:
    _emit(_json_text(_rows_payload(rows)) if cfg.format == "json" else _csv_text(rows), cfg.path)


def _num(value) -> str:
    return format_number(value)


def _params_label(params: dict) -> str:
    return ", ".join("%s=%s" % (k, v) for k, v in params.items())


# ---------------------------------------------------------------------------
# Configuration merging


def _parse_params(model, tokens, base: dict) -> dict:
    params = dict(base)
    positional = [t for t in tokens if "=" not in t]
    if positional:
        if model is None:
            raise ConfigError([Diagnostic("model", "id", "positional parameters need a model")])
        names = model_parameter_names(model)
        if len(positional) > len(names):
            message = "%d positional parameters but %s takes at most %d" % (
                len(positional), model, len(names))
            raise ConfigError([Diagnostic("model", "params", message)])
        for name, token in zip(names, positional):
            params[name] = parse_param_value(token)
    for token in tokens:
        if "=" in token:
            key, _, value = token.partition("=")
            params[key.strip()] = parse_param_value(value)
    return params


def _merged(args, command: str) -> RunConfig:
    path = getattr(args, "config", None)
    if path:
        cfg, given = load_config(path)
        if cfg.command != command:
            message = "config file drives %r but %r was invoked" % (cfg.command, command)
            raise ConfigError([Diagnostic("run", "command", message)])
    else:
        cfg, given = RunConfig(command=command), set()
    model = getattr(args, "model", None)
    tokens = list(getattr(args, "params", None) or [])
    if model is not None and "=" in model:
        tokens.insert(0, model)
        model = None
    if model is not None:
        if model != cfg.model:
            cfg.params = {}
        cfg.model = model
    if tokens:
        cfg.params = _parse_params(cfg.model, tokens, cfg.params)
    if model is not None or tokens:
        given.add("id")
    # every other flag's dest is the name of its setting
    given.update(name for name, value in vars(args).items() if name in _SECTIONS and value is not None)
    observable = getattr(args, "observable", None)
    if observable:
        given.add(observable)
    problems = []
    for name in ("size", "density", "seed", "replicas", "t_end", "sample_dt", "kind", "task", "coupled",
                 "path", "format"):
        value = getattr(args, name, None)
        if value is not None:
            problem = check_value(name, value)
            if problem is not None:
                problems.append(problem)
            setattr(cfg, name, value)
    if problems:
        raise ConfigError(problems)
    for name in ("first", "second"):
        bits = getattr(args, name, None)
        if bits is not None:
            setattr(cfg, name, parse_configuration(bits))
    unread = _unread(command, *_run(cfg, observable), given)
    if unread:
        raise ConfigError(unread)
    _check_lattice(cfg)
    return cfg


# ---------------------------------------------------------------------------
# What each run reads

#: What each run reads, declared once.  A run is a command, refined by task
#: for exact and for simulate by single, coupled or the observable of a
#: coupled run (see _run).  Each command maps the settings it reads, by flag
#: or file key, to None if every run of it reads the setting, else to the
#: refinements that do and the phrase that names them in a refusal.  An
#: observable counts as a setting of its own name.
_READS = {
    "check-monotone": dict.fromkeys(("id", "path", "format")),
    "coupling-table": dict.fromkeys(("id", "first", "second", "kind", "path", "format")),
    "exact": {
        **dict.fromkeys(("id", "size", "task", "path", "format")),
        "count": (("stationary",), "task stationary"),
        "density": (("stationary",), "task stationary"),
        "kind": (TASKS[1:], "tasks " + ", ".join(TASKS[1:])),
    },
    "simulate": {
        **dict.fromkeys(("id", "size", "first", "second", "count", "density", "coupled", "seed", "replicas",
                         "t_end", "path", "format", "density_profile")),
        "sample_dt": (("single", "coupled", "density_profile", "order_time"), "runs that keep samples"),
        "kind": (("coupled", *OBSERVABLES), "coupled runs"),
        "sites": (("coupled",), "the sample tables of coupled runs"),
        **dict.fromkeys(("order_time", "discrepancy_curve"), (OBSERVABLES, "coupled runs")),
    },
    "golden-suite": dict.fromkeys(("path", "format")),
    "zoo": {},
}

#: the phrase naming the readers of a setting that no run of a command
#: reads, where it is not the list of the commands that read it
_PHRASES = {"path": "runs that write a report", "format": "runs that write a report"}

#: starting options left unread by a higher one given with them
_OUTRANKED = {
    ("simulate", "count"): ("first",),
    ("simulate", "density"): ("first", "count"),
    ("exact", "density"): ("count",),
}

#: runs whose stdout has one fixed form, so that they read format only with a path
_FIXED_STDOUT = (("check-monotone", None), ("golden-suite", None), ("exact", "extinction"))

#: the section of every setting, in the order refusals list them
_SECTIONS = {
    "id": "model", **SECTIONS, "count": "lattice", "sites": "output",
    **dict.fromkeys(OBSERVABLES, "output"),
}


def _run(cfg: RunConfig, observable) -> tuple:
    """The refinement of a run's command, and the run's name in refusals."""
    if cfg.command == "exact":
        return cfg.task, cfg.task or "exact"
    if cfg.command != "simulate":
        return None, cfg.command
    if not (cfg.coupled or cfg.second is not None):
        return "single", "a single chain"
    if observable:
        return observable, "observable %s" % observable
    return "coupled", "a coupled run"


def _unread(command: str, refinement, label: str, given) -> list:
    """One diagnostic for each setting in ``given`` that the run does not
    read: ``command`` refined by ``refinement`` (None: not refined, or no
    task yet) and named ``label``.  A setting no run of the command reads
    names the command instead."""
    reads = _READS[command]
    unread = []
    for name, section in _SECTIONS.items():
        if name not in given:
            continue
        outranks = _OUTRANKED.get((command, name), ())
        higher = [other for other in outranks if other in given]
        if name not in reads:
            commands = ", ".join(c for c in COMMANDS if name in _READS[c])
            why = _PHRASES.get(name, commands), command
        elif reads[name] and refinement is not None and refinement not in reads[name][0]:
            why = reads[name][1], label
        elif higher:
            why = "runs without " + " or ".join(outranks), "%s with %s" % (label, higher[0])
        elif name == "format" and "path" not in given and (command, refinement) in _FIXED_STDOUT:
            why = "runs with path", label + " without path"
        else:
            continue
        option = "observable" if name in OBSERVABLES else name
        unread.append(Diagnostic(section, option, "%s is read only by %s, not %s" % (name, *why)))
    return unread


def _check_lattice(cfg: RunConfig) -> None:
    """Refuse a ring size and configurations whose lengths disagree."""
    problems = []
    for name in ("first", "second"):
        bits = getattr(cfg, name)
        if cfg.size is not None and bits is not None and len(bits) != cfg.size:
            message = "size %d differs from the %d sites of %s" % (cfg.size, len(bits), name)
            problems.append(Diagnostic("lattice", "size", message))
    if cfg.first is not None and cfg.second is not None and len(cfg.first) != len(cfg.second):
        message = "configuration lengths differ: first has %d sites, second %d" % (
            len(cfg.first),
            len(cfg.second),
        )
        problems.append(Diagnostic("lattice", "second", message))
    if problems:
        raise ConfigError(problems)


def _need(value, what: str):
    if value is None:
        raise ConfigError([Diagnostic("run", what, "%s is required" % what)])
    return value


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_check_monotone(args) -> int:
    cfg = _merged(args, "check-monotone")
    if args.witnesses < 0:
        message = "witnesses must be at least 0, got %d" % args.witnesses
        raise ConfigError([Diagnostic("output", "witnesses", message)])
    spec = build_spec(cfg)
    verdict = is_monotone(spec)
    label = "%s(%s)" % (spec.name, _params_label(spec.params))
    print("%s: %s" % (label, "monotone" if verdict.monotone else "not monotone"))
    for w in verdict.witnesses[: args.witnesses]:
        print(
            "  %s condition fails at offset %d: lower %s upper %s (lhs %s > rhs %s)"
            % (w.kind, w.lo, w.lower, w.upper, _num(w.lhs), _num(w.rhs))
        )
    if verdict.monotone and args.strict:
        report = strictness_report(spec)
        print(
            "strictness: %s (%d binding instances, min slack %s)"
            % ("strict" if report.strict else "not strict", report.binding_count, _num(report.min_slack))
        )
    if cfg.path is not None:
        rows = [("kind", "center", "lo", "lower", "upper", "lhs", "rhs")]
        for w in verdict.witnesses:
            rows.append((w.kind, w.center, w.lo, w.lower, w.upper, _num(w.lhs), _num(w.rhs)))
        if cfg.format == "json":
            payload = {
                "model": spec.name,
                "params": {k: str(v) for k, v in spec.params.items()},
                "monotone": verdict.monotone,
                "witnesses": _rows_payload(rows),
            }
            _emit(_json_text(payload), cfg.path)
        else:
            _emit(_csv_text(rows), cfg.path)
    return OK if verdict.monotone else NEGATIVE


def _cmd_coupling_table(args) -> int:
    cfg = _merged(args, "coupling-table")
    spec = build_spec(cfg)
    xi = _need(cfg.first, "first configuration")
    zeta = _need(cfg.second, "second configuration")
    kind = cfg.kind or "attractive"
    table = coupling_table(spec, xi, zeta, kind)
    rows = [("entry", "x1", "y1", "x2", "y2", "rate")]
    for (x1, y1, x2, y2), g in sorted(table.coupled.items()):
        rows.append(("coupled", x1, y1, x2, y2, _num(g)))
    for (x, y), g in sorted(table.residual_first.items()):
        if g > 0:
            rows.append(("first", x, y, "", "", _num(g)))
    for (x, y), g in sorted(table.residual_second.items()):
        if g > 0:
            rows.append(("second", x, y, "", "", _num(g)))
    _write_rows(rows, cfg)
    return OK


def _cmd_exact(args) -> int:
    cfg = _merged(args, "exact")
    spec = build_spec(cfg)
    size = _need(cfg.size, "lattice size")
    task = _need(cfg.task, "task")
    if task == "stationary":
        if args.count is not None:
            counts = [args.count]
        elif cfg.density is not None:
            counts = [round(cfg.density * size)]
        else:
            counts = list(range(size + 1))
        rows = [("sector", "component", "state", "weight")]
        for count in counts:
            gen = single_generator(spec, size, count)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                dists = stationary_distributions(gen)
            for warning in caught:  # one diagnostic line per reducible sector
                print("couplex: sector %d: %s" % (count, warning.message), file=sys.stderr)
            for member, dist in enumerate(dists):
                for state, weight in zip(dist.states, dist.weights):
                    if weight > 0:
                        rows.append((count, member, format_configuration(state), repr(float(weight))))
        _write_rows(rows, cfg)
        return OK
    if task in ("audit-order", "audit-discrepancy"):
        if task == "audit-order":
            violations = audit_order_preservation(spec, size, cfg.kind or "increasing")
        else:
            violations = audit_discrepancy_monotone(spec, size, cfg.kind or "attractive")
        rows = [("first", "second", "move", "first_jump", "second_jump", "rate")]
        for v in violations:
            xi, zeta = v.pair
            rows.append(
                (
                    format_configuration(xi),
                    format_configuration(zeta),
                    v.move,
                    "" if v.first_jump is None else "%d>%d" % v.first_jump,
                    "" if v.second_jump is None else "%d>%d" % v.second_jump,
                    _num(v.rate),
                )
            )
        _write_rows(rows, cfg)
        print("%d violating transitions" % len(violations), file=sys.stderr)
        return OK if not violations else NEGATIVE
    if task == "extinction":
        report = discrepancy_extinction(spec, size, cfg.kind or "strict")
        payload = {
            "min_probability": float(report.min_probability),
            "worst_pair": None
            if report.worst_pair is None
            else [format_configuration(c) for c in report.worst_pair],
            "pairs_checked": report.pairs_checked,
        }
        if cfg.format == "json" or cfg.path is None:
            _emit(_json_text(payload), cfg.path)
        else:
            rows = [("min_probability", "pairs_checked")]
            rows.append((repr(float(report.min_probability)), report.pairs_checked))
            _emit(_csv_text(rows), cfg.path)
        return OK if report.min_probability == 1 else NEGATIVE
    raise ConfigError([Diagnostic("run", "task", "unknown task %r" % task)])


def _make_start(cfg: RunConfig, size: int, args, rng) -> tuple:
    if cfg.first is not None:
        return tuple(cfg.first)
    if args.count is not None:
        return random_configuration(size, args.count, rng)
    if cfg.density is not None:
        return random_configuration(size, round(cfg.density * size), rng)
    raise ConfigError(
        [Diagnostic("lattice", "first", "simulate needs a start: --first, --count, or --density")]
    )


def _cmd_simulate(args) -> int:
    cfg = _merged(args, "simulate")
    spec = build_spec(cfg)
    if cfg.size is None and cfg.first is not None:
        cfg.size = len(cfg.first)
    size = _need(cfg.size, "lattice size")
    coupled = bool(cfg.coupled) or cfg.second is not None
    many = cfg.replicas > 1
    rows = None
    total = 0
    for replica in range(cfg.replicas):
        init_rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence((cfg.seed, replica, 1)))
        )
        first = _make_start(cfg, size, args, init_rng)
        if coupled:
            second = tuple(cfg.second) if cfg.second is not None else random_configuration(
                size, sum(first), init_rng
            )
            traj = simulate_coupled(
                spec,
                first,
                second,
                cfg.kind or "attractive",
                t_end=cfg.t_end,
                sample_dt=cfg.sample_dt,
                seed=cfg.seed,
                replica=replica,
            )
        else:
            traj = simulate_single(
                spec,
                first,
                t_end=cfg.t_end,
                sample_dt=cfg.sample_dt,
                seed=cfg.seed,
                replica=replica,
            )
        total += traj.total_events
        if args.observable:
            table = observable_report(traj, args.observable)
            if rows is None:
                rows = [(("replica",) + tuple(table[0])) if many else tuple(table[0])]
            rows.extend(((replica,) + tuple(r)) if many else tuple(r) for r in table[1:])
            continue
        if coupled:
            head = ("time", "discrepancies", "ordered")
            if args.sites:
                head = head + tuple("first_%d" % x for x in range(size))
                head = head + tuple("second_%d" % x for x in range(size))
            if rows is None:
                rows = [(("replica",) + head) if many else head]
            for t, snap in zip(traj.times, traj.snapshots):
                row = (repr(float(t)), snap.discrepancies, int(snap.ordered))
                if args.sites:
                    row = row + tuple(snap.first) + tuple(snap.second)
                rows.append(((replica,) + row) if many else row)
        else:
            head = ("time",) + tuple("site_%d" % x for x in range(size))
            if rows is None:
                rows = [(("replica",) + head) if many else head]
            for t, snap in zip(traj.times, traj.snapshots):
                row = (repr(float(t)),) + tuple(snap)
                rows.append(((replica,) + row) if many else row)
    _write_rows(rows, cfg)
    print(
        "%d replica%s, %d events" % (cfg.replicas, "" if cfg.replicas == 1 else "s", total),
        file=sys.stderr,
    )
    return OK


def _cmd_golden_suite(args) -> int:
    cfg = _merged(args, "golden-suite")
    idents = None
    if args.criteria:
        idents = [token.strip() for token in args.criteria.split(",") if token.strip()]
    results = run_suite(idents)
    for res in results:
        print(
            "%s %s (%.1fs): %s"
            % ("PASS" if res.passed else "FAIL", res.ident, res.seconds, res.detail)
        )
    passed = sum(1 for r in results if r.passed)
    print("%d/%d criteria passed" % (passed, len(results)))
    if cfg.path is not None:
        rows = [("criterion", "passed", "seconds", "detail")]
        for res in results:
            rows.append((res.ident, int(res.passed), "%.3f" % res.seconds, res.detail))
        if cfg.format == "json":
            payload = {
                "ok": passed == len(results),
                "results": [
                    {
                        "criterion": r.ident,
                        "passed": r.passed,
                        "seconds": round(r.seconds, 3),
                        "detail": r.detail,
                    }
                    for r in results
                ],
            }
            _emit(_json_text(payload), cfg.path)
        else:
            _emit(_csv_text(rows), cfg.path)
    return OK if passed == len(results) else NEGATIVE


def _cmd_zoo(args) -> int:
    _merged(args, "zoo")
    for ident in model_ids():
        print(model_signature(ident))
    return OK


_HANDLERS = {
    "check-monotone": _cmd_check_monotone,
    "coupling-table": _cmd_coupling_table,
    "exact": _cmd_exact,
    "simulate": _cmd_simulate,
    "golden-suite": _cmd_golden_suite,
    "zoo": _cmd_zoo,
}


# ---------------------------------------------------------------------------
# Parser


def _add_common(sub, model: bool = True) -> None:
    sub.add_argument("--config", metavar="FILE", default=argparse.SUPPRESS, help="INI file with defaults")
    sub.add_argument("--output", metavar="FILE", dest="path", help="write the report here (atomic)")
    sub.add_argument("--format", choices=FORMATS, help="report format")
    if model:
        sub.add_argument("model", nargs="?", help="built-in model id (see `couplex zoo`)")
        sub.add_argument(
            "params",
            nargs="*",
            help="model parameters, positional or key=value (fractions like 7/10 stay exact)",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="couplex",
        description="Couplings and order checks for exclusion processes on a ring.",
    )
    parser.add_argument("--config", metavar="FILE", help="INI file naming the command to run")
    subs = parser.add_subparsers(dest="command")

    sub = subs.add_parser("check-monotone", help="decide order preservation")
    _add_common(sub)
    sub.add_argument("--strict", action="store_true", help="also report strictness slack")
    sub.add_argument("--witnesses", type=int, default=5, help="witnesses to print (default 5)")

    sub = subs.add_parser("coupling-table", help="coupling table for one configuration pair")
    _add_common(sub)
    sub.add_argument("--first", help="first configuration, e.g. 10100")
    sub.add_argument("--second", help="second configuration")
    sub.add_argument("--kind", choices=KINDS)

    sub = subs.add_parser("exact", help="finite-ring checks")
    _add_common(sub)
    sub.add_argument("--task", choices=TASKS)
    sub.add_argument("--size", type=int, help="ring size")
    sub.add_argument("--count", type=int, help="particle count (stationary: one sector)")
    sub.add_argument("--density", type=float, help="particle density (alternative to --count)")
    sub.add_argument("--kind", choices=KINDS)

    sub = subs.add_parser("simulate", help="sample trajectories")
    _add_common(sub)
    sub.add_argument("--size", type=int, help="ring size")
    sub.add_argument("--first", help="explicit start configuration")
    sub.add_argument("--second", help="second start (implies --coupled)")
    sub.add_argument("--count", type=int, help="particles for a random start")
    sub.add_argument("--density", type=float, help="density for a random start")
    sub.add_argument("--coupled", action=argparse.BooleanOptionalAction, help="run a coupled pair")
    sub.add_argument("--kind", choices=KINDS)
    sub.add_argument("--t-end", type=float, dest="t_end", help="time horizon (default 1.0)")
    sub.add_argument("--sample-dt", type=float, dest="sample_dt", help="sampling interval")
    sub.add_argument("--seed", type=int, help="master seed (default 0)")
    sub.add_argument("--replicas", type=int, help="independent replicas (default 1)")
    sub.add_argument(
        "--observable", choices=OBSERVABLES, help="tabulate one observable instead of raw samples"
    )
    sub.add_argument("--sites", action="store_true", default=None, help="include per-site columns in coupled output")

    sub = subs.add_parser("golden-suite", help="run the acceptance battery")
    _add_common(sub, model=False)
    sub.add_argument("--criteria", help="comma-separated criterion ids (default: all)")

    sub = subs.add_parser("zoo", help="list built-in models")
    _add_common(sub, model=False)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command = args.command
    try:
        if command is None:
            if not args.config:
                parser.print_usage(sys.stderr)
                print("couplex: a subcommand or --config is required", file=sys.stderr)
                return ERROR
            command = load_config(args.config)[0].command
            args = parser.parse_args([command, "--config", args.config])
        return _HANDLERS[command](args)
    except ConfigError as exc:
        for diagnostic in exc.diagnostics:
            print("couplex: %s" % diagnostic, file=sys.stderr)
        return ERROR
    except AssertionError as exc:
        print("couplex: pathwise check failed: %s" % exc, file=sys.stderr)
        return NEGATIVE
    except (ValueError, OSError) as exc:
        print("couplex: %s" % exc, file=sys.stderr)
        return ERROR


if __name__ == "__main__":
    sys.exit(main())
