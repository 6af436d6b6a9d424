"""Flat ``key = value`` run configuration with resolved snapshots.

Human-diffable by construction: one key per line, ``#`` comments, no
nesting. Every command writes the fully resolved configuration next to its
outputs; re-running the command from that snapshot (same seed) reproduces
the outputs byte-for-byte. Unknown keys are contract errors so stale
configs fail loudly.
"""

from __future__ import annotations

from pathlib import Path

from .errors import ContractError

# keys every command understands (written into snapshots for provenance)
RESERVED = ("command", "args", "seed", "threads", "out")


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
    lines = [f"{k} = {resolved[k]}" for k in resolved]
    Path(path).write_text("\n".join(lines) + "\n")


def parse_floats(text: str, what: str) -> tuple[float, ...]:
    """A comma list of numbers, from a flag or a config key."""
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError as e:
        raise ContractError(f"{what} is not a comma list of numbers: {text!r}") from e


class RunConfig:
    """Typed access over the raw string map; each command rejects the keys
    it does not know."""

    def __init__(self, raw: dict[str, str]):
        self.raw = dict(raw)

    def has(self, key: str) -> bool:
        return key in self.raw

    def get_str(self, key: str, default: str | None = None) -> str | None:
        v = self.raw.get(key)
        return default if v is None else v

    def get_int(self, key: str, default: int | None = None) -> int | None:
        v = self.raw.get(key)
        if v is None:
            return default
        try:
            return int(v)
        except ValueError as e:
            raise ContractError(f"config key {key!r} is not an integer: {v!r}") from e

    def get_float(self, key: str, default: float | None = None) -> float | None:
        v = self.raw.get(key)
        if v is None:
            return default
        try:
            return float(v)
        except ValueError as e:
            raise ContractError(f"config key {key!r} is not a number: {v!r}") from e

    def get_bool(self, key: str, default: bool = False) -> bool:
        v = self.raw.get(key)
        if v is None:
            return default
        if v.lower() in ("1", "true", "yes"):
            return True
        if v.lower() in ("0", "false", "no"):
            return False
        raise ContractError(f"config key {key!r} is not a boolean: {v!r}")

    def get_tuple(self, key: str, default: tuple[int, ...] | None = None) -> tuple[int, ...] | None:
        v = self.raw.get(key)
        if v is None:
            return default
        try:
            return tuple(int(x) for x in v.split(",") if x.strip())
        except ValueError as e:
            raise ContractError(f"config key {key!r} is not an int list: {v!r}") from e

    def reject_unknown(self, allowed: set[str]) -> None:
        unknown = {
            k for k in set(self.raw) - allowed - set(RESERVED)
            if not k.startswith("arg_")  # provenance entries in snapshots
        }
        if unknown:
            raise ContractError(f"unknown config keys: {sorted(unknown)}")
