"""Run configuration: INI parsing, validation, canonical serialization.

A run is described by an INI file with up to five sections::

    [run]        command = check-monotone | coupling-table | exact | simulate
                           | golden-suite | zoo
    [model]      id = <zoo model id>, plus one key per model parameter
    [lattice]    size, density, first, second
    [execution]  seed, replicas, t_end, sample_dt, kind, task, coupled
    [output]     path, format

Scalar parameters are written as integers (``2``), exact rationals (``7/10``)
or floats (``0.7``); the spelling decides the arithmetic mode.  Jump laws are
mappings ``1:1/2, -1:1/2`` and custom rate tables are indented line triples
``offset pattern rate``.  Unknown sections or keys are errors, never silently
ignored.  ``parse_config(serialize_config(c))`` returns an equal config.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .coupling import KINDS
from .lattice import Config, format_configuration, parse_configuration
from .models import make_model, model_ids

COMMANDS = (
    "check-monotone",
    "coupling-table",
    "exact",
    "simulate",
    "golden-suite",
    "zoo",
)

TASKS = ("stationary", "audit-order", "audit-discrepancy", "extinction")

FORMATS = ("csv", "json")


@dataclass
class Diagnostic:
    section: str
    option: Optional[str]
    message: str

    def __str__(self) -> str:
        where = self.section if self.option is None else "%s.%s" % (self.section, self.option)
        return "[%s] %s" % (where, self.message)


class ConfigError(ValueError):
    """Invalid run configuration; carries one diagnostic per problem."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


@dataclass
class RunConfig:
    command: str = "zoo"
    model: Optional[str] = None
    params: dict = field(default_factory=dict)
    size: Optional[int] = None
    density: Optional[float] = None
    first: Optional[Config] = None
    second: Optional[Config] = None
    seed: int = 0
    replicas: int = 1
    t_end: float = 1.0
    sample_dt: Optional[float] = None
    kind: Optional[str] = None
    task: Optional[str] = None
    coupled: bool = False
    path: Optional[str] = None
    format: str = "csv"


_DEFAULTS = RunConfig()


def parse_number(text: str):
    """Parse a scalar: '2' -> int, '7/10' -> Fraction, '0.7' -> float."""
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        pass
    if "/" in text:
        return Fraction(text)
    return float(text)


def format_number(value) -> str:
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return "%d/%d" % (value.numerator, value.denominator)
    return repr(value) if isinstance(value, float) else str(value)


def parse_param_value(text: str):
    """Parse a model-parameter literal.

    Multiline values are rate tables (``offset pattern rate`` per line),
    values with ':' are jump-law mappings, values with ',' are integer
    tuples, anything else is a scalar number.
    """
    text = text.strip()
    if "\n" in text:
        table = {}
        for line in text.splitlines():
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 3:
                raise ValueError("table lines are 'offset pattern rate', got %r" % line)
            table[(int(parts[0]), parts[1])] = parse_number(parts[2])
        return table
    if ":" in text:
        law = {}
        for item in text.split(","):
            if not item.strip():
                continue
            k, _, v = item.partition(":")
            law[int(k)] = parse_number(v)
        return law
    if "," in text:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    return parse_number(text)


def format_param_value(value) -> str:
    if isinstance(value, dict):
        keys = sorted(value)
        if keys and isinstance(keys[0], tuple):  # custom rate table
            lines = ["%d %s %s" % (d, pat, format_number(value[(d, pat)])) for d, pat in keys]
            return "\n" + "\n".join("    " + ln for ln in lines)
        return ", ".join("%d:%s" % (k, format_number(value[k])) for k in keys)
    if isinstance(value, tuple):
        text = ", ".join(str(v) for v in value)
        return text + "," if len(value) == 1 else text
    return format_number(value)


_KNOWN = {
    "run": ("command",),
    "lattice": ("size", "density", "first", "second"),
    "execution": ("seed", "replicas", "t_end", "sample_dt", "kind", "task", "coupled"),
    "output": ("path", "format"),
}

_SECTION = {option: section for section, options in _KNOWN.items() for option in options}


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low not in ("true", "false"):
        raise ValueError("expected 'true' or 'false', got %r" % text)
    return low == "true"


#: per-key reader of the INI text; keys without one are read as stripped text
_CONVERT = {
    "size": int,
    "density": float,
    "first": parse_configuration,
    "second": parse_configuration,
    "seed": int,
    "replicas": int,
    "t_end": float,
    "sample_dt": float,
    "coupled": _parse_bool,
}

#: per-key writer of the INI text; keys without one are written with str
_WRITE = {
    "density": repr,
    "first": format_configuration,
    "second": format_configuration,
    "t_end": repr,
    "sample_dt": repr,
    "coupled": lambda _: "true",
}


def _one_of(option, choices):
    return (lambda v: v in choices, "unknown %s %%r; expected one of %s" % (option, ", ".join(choices)))


#: per-key test and message of a value, the same for INI files and flags
_CHECKS = {
    "size": (lambda n: n >= 1, "size must be at least 1, got %r"),
    "density": (lambda r: 0.0 <= r <= 1.0, "density must lie in [0, 1], got %r"),
    "replicas": (lambda n: n >= 1, "replicas must be at least 1, got %r"),
    "t_end": (lambda t: t > 0, "t_end must be positive, got %r"),
    "sample_dt": (lambda t: t > 0, "sample_dt must be positive, got %r"),
    "kind": _one_of("kind", KINDS),
    "task": _one_of("task", TASKS),
    "format": _one_of("format", FORMATS),
}


def check_value(option: str, value) -> Optional[Diagnostic]:
    """Check one run setting; a Diagnostic naming its section if it is
    invalid, else None."""
    ok, message = _CHECKS.get(option, (None, None))
    if ok is None or ok(value):
        return None
    return Diagnostic(_SECTION[option], option, message % (value,))


def parse_config(text: str) -> RunConfig:
    """Parse INI text into a RunConfig, raising ConfigError on any problem."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as err:
        raise ConfigError([Diagnostic("syntax", None, str(err).replace("\n", " "))]) from err

    problems = []
    cfg = RunConfig()

    for section in parser.sections():
        if section not in _KNOWN and section != "model":
            problems.append(Diagnostic(section, None, "unknown section"))

    def grab(section, option):
        try:
            value = _CONVERT.get(option, str.strip)(parser.get(section, option))
        except (ValueError, ZeroDivisionError) as err:
            problems.append(Diagnostic(section, option, str(err)))
            return None
        problem = check_value(option, value)
        if problem is not None:
            problems.append(problem)
            return None
        return value

    if parser.has_section("run"):
        for option in parser.options("run"):
            if option not in _KNOWN["run"]:
                problems.append(Diagnostic("run", option, "unknown key"))
        if parser.has_option("run", "command"):
            raw = parser.get("run", "command").strip()
            if raw not in COMMANDS:
                problems.append(
                    Diagnostic("run", "command", "unknown command %r; expected one of %s" % (raw, ", ".join(COMMANDS)))
                )
            else:
                cfg.command = raw
        else:
            problems.append(Diagnostic("run", "command", "missing required key"))
    else:
        problems.append(Diagnostic("run", None, "missing required section"))

    if parser.has_section("model"):
        if parser.has_option("model", "id"):
            model_id = parser.get("model", "id").strip()
            if model_id not in model_ids():
                problems.append(
                    Diagnostic("model", "id", "unknown model %r; expected one of %s" % (model_id, ", ".join(model_ids())))
                )
            else:
                cfg.model = model_id
        else:
            problems.append(Diagnostic("model", "id", "missing required key"))
        for option in parser.options("model"):
            if option == "id":
                continue
            try:
                cfg.params[option] = parse_param_value(parser.get("model", option))
            except (ValueError, ZeroDivisionError) as err:
                problems.append(Diagnostic("model", option, str(err)))
        if cfg.model is not None and not problems:
            try:
                make_model(cfg.model, cfg.params)
            except ValueError as err:
                problems.append(Diagnostic("model", None, str(err)))

    for section in ("lattice", "execution", "output"):
        if not parser.has_section(section):
            continue
        for option in parser.options(section):
            if option not in _KNOWN[section]:
                problems.append(Diagnostic(section, option, "unknown key"))
        for option in _KNOWN[section]:
            if parser.has_option(section, option):
                setattr(cfg, option, grab(section, option))

    if problems:
        raise ConfigError(problems)
    return cfg


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config(handle.read())


def serialize_config(cfg: RunConfig) -> str:
    """Canonical INI text: fixed section/key order, defaults omitted."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.add_section("run")
    parser.set("run", "command", cfg.command)
    if cfg.model is not None:
        parser.add_section("model")
        parser.set("model", "id", cfg.model)
        for key in sorted(cfg.params):
            parser.set("model", key, format_param_value(cfg.params[key]))
    for section in ("lattice", "execution", "output"):
        values = {
            option: _WRITE.get(option, str)(getattr(cfg, option))
            for option in _KNOWN[section]
            if getattr(cfg, option) != getattr(_DEFAULTS, option)
        }
        if values:
            parser.add_section(section)
            for option, text in values.items():
                parser.set(section, option, text)
    buffer = io.StringIO()
    parser.write(buffer)
    return buffer.getvalue()


def build_spec(cfg: RunConfig):
    """Instantiate the configured model, or raise ConfigError."""
    if cfg.model is None:
        raise ConfigError([Diagnostic("model", "id", "command %r needs a model" % cfg.command)])
    try:
        return make_model(cfg.model, cfg.params)
    except ValueError as err:
        raise ConfigError([Diagnostic("model", None, str(err))]) from err
