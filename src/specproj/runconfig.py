"""Flat ``key = value`` run configuration, settings tables and snapshots.

Human-diffable by construction: one key per line, ``#`` comments, no
nesting. Each command declares its settings once, as ``Row``s of a table:
key, parser, default, and whether a ``--flag`` sets it too. ``resolve``
rejects a config key or a given flag that no row names, takes each value
from its flag, else its environment variable, else its config key, else its
default, and returns the resolved map; the command writes that same map as
its snapshot, so re-running from the snapshot (same seed) reproduces the
outputs byte-for-byte. A malformed value is a contract error naming its
setting, whether it came from a flag or a key.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
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


def load_config(path: str | Path) -> dict[str, str]:
    return parse_config_text(Path(path).read_text())


def write_snapshot(path: str | Path, resolved: dict) -> None:
    """One ``key = value`` line per resolved setting; a setting left at
    None is not written, and a tuple is written as a comma list."""
    lines = [f"{k} = {','.join(map(str, v)) if isinstance(v, tuple) else v}"
             for k, v in resolved.items() if v is not None]
    Path(path).write_text("\n".join(lines) + "\n")


# -- parsers: text -> value, raising ValueError("is not ...") ----------------

def _parser(what: str, convert: Callable[[str], Any]) -> Callable[[str], Any]:
    def parse(text: str):
        try:
            return convert(text)
        except (ValueError, KeyError):
            raise ValueError(f"is not {what}") from None
    return parse


def bounded(parse: Callable[[str], Any], ok: Callable[[Any], bool], need: str) -> Callable[[str], Any]:
    """``parse``, then reject a value for which ``ok`` is false."""
    def check(text: str):
        value = parse(text)
        if not ok(value):
            raise ValueError(f"must be {need}")
        return value
    return check


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


def one_of(*options: str, many: bool = False) -> Callable[[str], Any]:
    """One of ``options``, or with ``many`` a comma list of them."""
    def convert(text: str):
        picked = tuple(text.split(",")) if many else (text,)
        if any(p not in options for p in picked):
            raise ValueError
        return picked if many else text
    return _parser(("a comma list of " if many else "one of ") + ", ".join(options), convert)


@dataclass(frozen=True)
class Row:
    """One setting: its config key, parser and default; ``flag`` adds a
    ``--key`` option (underscores as dashes), and ``env`` names an
    environment variable read after the flag and before the key."""
    key: str
    parse: Callable[[str], Any]
    default: Any = None
    flag: bool = False
    help: str | None = None
    env: str | None = None


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
        # lowest precedence first: config key, environment variable, flag
        text, name = raw.get(r.key), r.key.replace("_", " ")
        if r.env and os.environ.get(r.env):
            text, name = os.environ[r.env], r.env
        if r.flag and flags.get(r.key) is not None:
            text, name = flags[r.key], r.key.replace("_", " ")
        try:
            out[r.key] = r.default if text is None else r.parse(text)
        except ValueError as e:
            raise ContractError(f"{name} {e}: {text!r}") from None
    return out
