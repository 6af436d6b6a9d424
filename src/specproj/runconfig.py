"""Flat ``key = value`` run configuration, settings tables and snapshots.

Human-diffable by construction: one key per line, ``#`` comments, no
nesting. Each command declares its settings once, as ``Row``s of a table:
key, parser, default, and whether a ``--flag`` sets it too. ``resolve``
rejects a config key or a given flag that no row names, takes each value
from its flag, else its config key, else its default, and returns the
resolved map; the command writes that same map as its snapshot, so
re-running from the snapshot (same seed) reproduces the outputs
byte-for-byte. A malformed value is a contract error naming its setting,
whether it came from a flag or a key, and so is one that its snapshot line
would not hold; a config or manifest file that is not UTF-8 names the file.

A parser is the one statement of its value's rule: ``bounded`` and
``one_of`` give it a ``rule``, (predicate, wording). A dataclass field names
its parser (``setting``), through which ``fldio.from_header`` reads its
model header or manifest line, and ``check_fields`` holds a built value to
that rule, naming the field; a settings row for the same value cites the
same parser, so the CLI refuses it before any data loads.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Any, Callable

from .errors import ContractError

# snapshot lines that are provenance, not settings: skipped on read
# (``arg_*`` lines come from snapshots of older versions)
PROVENANCE = ("command", "args")


def parse_config_text(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ContractError(f"config line {lineno} has no '=': {raw!r}")
        key = key.strip()
        if not key:
            raise ContractError(f"config line {lineno} has an empty key")
        out[key] = value.strip()
    return out


def read_text(path: str | Path) -> str:
    """The text of a config or manifest file, which must be UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ContractError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from None


def load_config(path: str | Path) -> dict[str, str]:
    """The settings of a config file; an error names the file."""
    text = read_text(path)
    try:
        return parse_config_text(text)
    except ContractError as e:
        raise ContractError(f"{path}: {e}") from None


def snapshot_text(resolved: dict) -> str:
    """One ``key = value`` line per resolved setting; a setting left at
    None is not written, and a tuple is written as a comma list. A setting
    whose line ``parse_config_text`` would not read back as written (a '#',
    a line break, or leading or trailing spaces) is a contract error naming
    it. The provenance lines are not settings and are skipped on read, but a
    line break in one would make the rest of it a line of its own, so a
    provenance line with a line break is refused too."""
    lines = {k: ",".join(map(str, v)) if isinstance(v, tuple) else str(v)
             for k, v in resolved.items() if v is not None}
    breaks = {k: "".join(text.splitlines()) != text for k, text in lines.items()}
    # settings first: a flag's line break is in the args line too, and the
    # setting's own line names it
    for k, text in lines.items():
        if k not in PROVENANCE and (breaks[k] or "#" in text or text != text.strip()):
            raise ContractError(f"{k.replace('_', ' ')} {text!r} would not read back from its "
                                "snapshot line: a '#', a line break, or leading or trailing spaces")
    for k in PROVENANCE:
        if breaks.get(k):
            raise ContractError(f"a line break in the {k} would split its snapshot line: "
                                f"{lines[k]!r}")
    return "".join(f"{k} = {text}\n" for k, text in lines.items())


# -- parsers: text -> value, raising ValueError("is not ..." or "must be ...") --

def _parser(what: str, convert: Callable[[str], Any]) -> Callable[[str], Any]:
    def parse(text: str):
        try:
            return convert(text)
        except (ValueError, KeyError):
            raise ValueError(f"is not {what}") from None
    return parse


def bounded(parse: Callable[[str], Any], ok: Callable[[Any], bool], need: str) -> Callable[[str], Any]:
    """``parse``, then reject a value for which ``ok`` is false. The parser
    carries its ``rule``, (ok, need) joined to the rule of ``parse``."""
    def check(text: str):
        value = parse(text)
        if not ok(value):
            raise ValueError(f"must be {need}")
        return value
    inner_ok, inner_need = getattr(parse, "rule", (None, None))
    check.rule = (ok, need) if inner_ok is None else \
        (lambda v: inner_ok(v) and ok(v), f"{inner_need} and {need}")
    return check


def dash(parse: Callable[[str], Any], empty: Any = None) -> Callable[[str], Any]:
    """``parse``, but ``-``, which ``fldio.format_value`` writes for None or
    an empty tuple, reads as ``empty``; the rule lets both pass."""
    def read(text: str):
        return empty if text == "-" else parse(text)
    ok, need = parse.rule
    read.rule = (lambda v: v is None or v == empty or ok(v), need)
    return read


def one_of(*options: str, many: bool = False) -> Callable[[str], Any]:
    """One of ``options``, or with ``many`` a comma list of them."""
    return bounded(lambda t: tuple(t.split(",")) if many else t,
                   lambda v: set(v if many else (v,)) <= set(options),
                   ("a comma list of " if many else "one of ") + ", ".join(options))


_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}

# a number is finite: no setting takes nan or +-inf
integer = _parser("an integer", int)
number = bounded(_parser("a number", float), math.isfinite, "finite")
boolean = _parser("a boolean", lambda t: _BOOLEANS[t.lower()])
integers = _parser("a comma list of integers",
                   lambda t: tuple(int(x) for x in t.split(",") if x.strip()))
numbers = bounded(_parser("a comma list of numbers",
                          lambda t: tuple(float(x) for x in t.split(",") if x.strip())),
                  lambda v: all(map(math.isfinite, v)), "finite")

# the range rules, which settings rows and dataclass fields (``setting``) cite
AT_LEAST_0, AT_LEAST_1, AT_LEAST_8 = (bounded(integer, lambda v, n=n: v >= n, f">= {n}")
                                      for n in (0, 1, 8))
EVEN_AT_LEAST_0, EVEN_AT_LEAST_8 = (bounded(p, lambda v: v % 2 == 0, "even")
                                    for p in (AT_LEAST_0, AT_LEAST_8))
POSITIVE = bounded(number, lambda v: v > 0, "> 0")
NON_NEGATIVE = bounded(number, lambda v: v >= 0, ">= 0")
SEED = bounded(integer, lambda v: 0 <= v < 2**64, "in [0, 2**64)")
# one count per grid axis, at least one count: an empty list is written "-" (``dash``)
MODE_COUNTS, PAD_COUNTS = (bounded(integers, lambda v, n=n: len(v) > 0 and min(v) >= n,
                                   f"one or more counts >= {n}") for n in (1, 0))


def setting(parse: Callable[[str], Any], default: Any = MISSING):
    """A dataclass field read by ``parse``: ``fldio.from_header`` reads its
    line with it, and ``check_fields`` holds its value to the parser's rule."""
    return field(default=default, metadata={"parse": parse})


def check_fields(obj) -> None:
    """Refuse the first field of the dataclass ``obj`` whose value is outside
    its parser's rule: ``<field> must be <need>, got <value!r>``."""
    for f in fields(obj):
        ok, need = getattr(f.metadata.get("parse"), "rule", (None, None))
        if ok is not None and not ok(getattr(obj, f.name)):
            raise ContractError(f"{f.name} must be {need}, got {getattr(obj, f.name)!r}")


@dataclass(frozen=True)
class Row:
    """One setting: its config key, parser and default; ``flag`` adds a
    ``--key`` option (underscores as dashes)."""
    key: str
    parse: Callable[[str], Any]
    default: Any = None
    flag: bool = False
    help: str | None = None


def resolve(rows: tuple[Row, ...], flags: dict[str, Any], raw: dict[str, str]) -> dict[str, Any]:
    """The resolved settings map of ``rows``: flag values come from
    ``flags`` (setting flag key -> value, None when not given), config values
    from ``raw``. A given flag or a config key that no row names is an error."""
    known = {r.key for r in rows}
    unknown = sorted(k for k in raw
                     if k not in known and k not in PROVENANCE and not k.startswith("arg_"))
    if unknown:
        raise ContractError(f"unknown config keys: {unknown}")
    stray = sorted("--" + k.replace("_", "-") for k, v in flags.items()
                   if v is not None and k not in known)
    if stray:
        raise ContractError(f"flags this command does not take: {stray}")
    out: dict[str, Any] = {}
    for r in rows:
        text = raw.get(r.key)
        if r.flag and flags.get(r.key) is not None:  # a given flag wins over the key
            text = flags[r.key]
        try:
            out[r.key] = r.default if text is None else r.parse(text)
        except ValueError as e:
            raise ContractError(f"{r.key.replace('_', ' ')} {e}: {text!r}") from None
    return out
