"""Line-based `key = value` run configuration.

Repeated list keys accumulate (`filter = P:0.6` twice gives a two-filter
bank); any other key given twice is an error, not a silent override.
Blank lines and `#` comments are ignored.  Each reader names the keys it
accepts, so a misspelt or stale key is an error rather than a silent
default.  Parse errors carry the offending key and line number.
"""

from __future__ import annotations

import math


class ConfigError(ValueError):
    """Malformed configuration; message names the key and line."""


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Parse to a mapping of key -> list of (line number, raw value, source)."""
    entries: dict[str, list[tuple[int, str, str]]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected `key = value`, got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"{source}:{lineno}: empty key or value in {raw.strip()!r}")
        entries.setdefault(key, []).append((lineno, value, source))
    return entries


def load_config(path, keys, lists=()) -> dict:
    """Parse the file at ``path``; a key not in ``keys``, or a key not in
    ``lists`` given twice, is an error naming its line."""
    with open(path, "r", encoding="utf-8") as fh:
        entries = parse_config_text(fh.read(), source=str(path))
    unknown = [(lines[0][0], key) for key, lines in entries.items() if key not in keys]
    if unknown:
        lineno, key = min(unknown)
        raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
    repeated = [(lines[1][0], lines[0][0], key) for key, lines in entries.items()
                if len(lines) > 1 and key not in lists]
    if repeated:
        lineno, first, key = min(repeated)
        raise ConfigError(f"{path}:{lineno}: key {key!r} given twice (first at line {first})")
    return entries


def get_scalar(entries: dict, key: str, convert, default=None):
    """The value of a key given once (:func:`load_config` rejects repeats)."""
    if key not in entries:
        return default
    lineno, value, source = entries[key][0]
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{source}:{lineno}: bad value for key {key!r}: {value!r}") from exc


def get_list(entries: dict, key: str, convert) -> list:
    """All occurrences, in file order; comma-separated values also split."""
    out = []
    for lineno, value, source in entries.get(key, []):
        for part in value.split(","):
            part = part.strip()
            if not part:
                continue
            try:
                out.append(convert(part))
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{source}:{lineno}: bad value for key {key!r}: {part!r}") from exc
    return out


def at_least(kind, low, high=math.inf):
    """Parse a finite ``kind`` value in [``low``, ``high``]; the config reader names file:line."""
    def convert(text):
        value = kind(text)
        if not low <= value < math.inf:  # NaN too
            raise ValueError(f"must be >= {low} and finite, got {value}")
        if value > high:
            raise ValueError(f"must be <= {high}, got {value}")
        return value
    return convert


def parse_positive(text) -> float:
    """A finite float > 0."""
    value = float(text)
    if not 0 < value < math.inf:  # NaN too
        raise ValueError(f"must be > 0 and finite, got {value}")
    return value


def parse_filter_exponent(spec: str) -> float:
    """`P:0.6` -> 0.6 (a bare number is accepted too)."""
    spec = spec.strip()
    return parse_positive(spec[2:] if spec.upper().startswith("P:") else spec)


def parse_grappa_kernel(spec: str):
    """`bx:1,by:2` -> (bx_half, by_taps)."""
    bx, by = None, None
    for part in spec.split(","):
        part = part.strip().lower()
        if part.startswith("bx:"):
            bx = int(part[3:])
        elif part.startswith("by:"):
            by = int(part[3:])
        else:
            raise ValueError(f"has a bad component {part!r}")
    if bx is None or by is None:
        raise ValueError(f"needs both bx: and by:, got {spec!r}")
    return bx, by
