"""Minimal `[section]` / `key = value` config format shared by the catalog files.

Kept deliberately small so parse errors can point at the exact field and line,
which configparser does not do for semantic problems.  A ``SectionReader``
has one typed read, ``get(key, parse, what, default)``: the parser and its
description come from the caller (a record's field type picks them, see
``arch.Record.from_section``), and ``dataclasses.MISSING`` marks a required
key, so a dataclass field's default can be passed straight in.
"""

from __future__ import annotations

from dataclasses import MISSING


class ConfigError(ValueError):
    """Malformed or invalid config content; message names the field and line."""


def parse_sections(text: str, source: str = "<config>") -> dict[str, dict[str, tuple[str, int]]]:
    """Parse sectioned key/value text into {section: {key: (raw_value, line)}}."""
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    current: dict[str, tuple[str, int]] | None = None
    current_name = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if not name:
                raise ConfigError(f"{source}:{lineno}: empty section name")
            if name in sections:
                raise ConfigError(f"{source}:{lineno}: duplicate section '{name}'")
            current = {}
            current_name = name
            sections[name] = current
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got '{line}'")
        if current is None:
            raise ConfigError(f"{source}:{lineno}: key/value pair outside any [section]")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"{source}:{lineno}: missing key before '='")
        if key in current:
            raise ConfigError(
                f"{source}:{lineno}: duplicate field '{key}' in section '{current_name}'"
            )
        current[key] = (value, lineno)
    return sections


class SectionReader:
    """Typed field access over one parsed section, with unknown-field rejection."""

    def __init__(self, name: str, fields: dict[str, tuple[str, int]], source: str = "<config>"):
        self.name = name
        self.source = source
        self._fields = fields
        self._seen: set[str] = set()

    def get(self, key: str, parse, what: str, default=MISSING):
        """Field `key` decoded by `parse`, or `default` when the section has no
        such key; a key with no default (``MISSING``) is required, and a value
        that `parse` refuses with a ``ValueError`` is reported as not `what`."""
        if key not in self._fields:
            if default is MISSING:
                raise ConfigError(
                    f"{self.source}: section '{self.name}' is missing required field '{key}'"
                )
            return default
        self._seen.add(key)
        value, lineno = self._fields[key]
        try:
            return parse(value)
        except ValueError:
            raise ConfigError(
                f"{self.source}:{lineno}: field '{key}' must be {what}, got '{value}'"
            ) from None

    def reject_unknown(self) -> None:
        unknown = set(self._fields) - self._seen
        if unknown:
            key = sorted(unknown)[0]
            _, lineno = self._fields[key]
            raise ConfigError(
                f"{self.source}:{lineno}: unknown field '{key}' in section '{self.name}'"
            )
