"""INI experiment configuration: typed parsing, validation, canonical hashing.

A configuration is UTF-8 ``key = value`` INI text with one ``[run]`` section
naming the experiment plus parameter sections grouped by topic (lattice,
spectral, sampling, ...).  Parsing validates every key against the
experiment's declared schema and reports *all* violations at once, each
naming the offending key.  A canonical serialization (sorted sections and
keys, 17-significant-digit floats) defines the config hash used for output
provenance.
"""

from __future__ import annotations

import configparser
import difflib
import hashlib
import io
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

__all__ = [
    "Param",
    "ConfigError",
    "ExperimentConfig",
    "parse_config",
    "serialize_config",
    "config_hash",
]

RUN_SECTION = "run"


@dataclass(frozen=True)
class Param:
    """Declaration of one config key: location, type, default, precondition.

    ``kind`` is one of int, float, "int_list", "float_list".  A ``None``
    default marks the key required.  ``check`` maps a parsed value to an
    error message (mentioning the constraint) or None when satisfied.
    """

    section: str
    key: str
    kind: object
    default: object = None
    check: Callable[[object], str | None] | None = None

    @property
    def name(self) -> str:
        return f"{self.section}.{self.key}"


class ConfigError(ValueError):
    """Raised with the complete list of validation violations."""

    def __init__(self, violations: Sequence[str]):
        self.violations = list(violations)
        super().__init__("\n".join(self.violations))


@dataclass
class ExperimentConfig:
    """A fully validated experiment run: name, parameters, output location."""

    experiment: str
    output_dir: str
    params: dict[str, object] = field(default_factory=dict)

    def __getitem__(self, name: str) -> object:
        return self.params[name]


def positive(label: str) -> Callable[[object], str | None]:
    return lambda v: None if v > 0 else f"precondition violated: {label} > 0 (got {v})"


def nonnegative(label: str) -> Callable[[object], str | None]:
    return lambda v: None if v >= 0 else f"precondition violated: {label} >= 0 (got {v})"


def at_least(bound: int, label: str) -> Callable[[object], str | None]:
    return (
        lambda v: None
        if v >= bound
        else f"precondition violated: {label} >= {bound} (got {v})"
    )


def _parse_scalar(raw: str, kind: object, name: str, errors: list[str]):
    raw = raw.strip()
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            value = float(raw)
            if not math.isfinite(value):
                errors.append(f"{name}: value must be finite (got {raw})")
                return None
            return value
        if kind == "int_list":
            return tuple(int(tok) for tok in raw.replace(",", " ").split())
        if kind == "float_list":
            values = tuple(float(tok) for tok in raw.replace(",", " ").split())
            if any(not math.isfinite(v) for v in values):
                errors.append(f"{name}: all entries must be finite (got {raw})")
                return None
            return values
    except ValueError:
        pass
    errors.append(f"{name}: cannot parse {raw!r} as {_kind_label(kind)}")
    return None


def _kind_label(kind: object) -> str:
    if kind is int:
        return "an integer"
    if kind is float:
        return "a number"
    return "a comma-separated list of " + (
        "integers" if kind == "int_list" else "numbers"
    )


def _suggest(key: str, candidates: Sequence[str]) -> str:
    close = difflib.get_close_matches(key, candidates, n=1, cutoff=0.6)
    return f"; did you mean {close[0]!r}?" if close else ""


def parse_config(
    text: str, registry: Mapping[str, Sequence[Param]]
) -> ExperimentConfig:
    """Parse and validate INI text against the experiment's schema.

    ``registry`` maps experiment names to their parameter declarations.
    Every violation -- unknown section or key (with a close-match
    suggestion), missing required key, type mismatch, failed precondition --
    is collected and raised together in one :class:`ConfigError`.
    """
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keys are case-sensitive (L vs lambda)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"INI syntax: {exc}"]) from exc

    errors: list[str] = []
    if not parser.has_section(RUN_SECTION):
        raise ConfigError([f"missing [{RUN_SECTION}] section naming the experiment"])
    run_keys = dict(parser.items(RUN_SECTION))
    experiment = run_keys.pop("experiment", None)
    output_dir = run_keys.pop("output_dir", "qdlab-results")
    for stray in sorted(run_keys):
        errors.append(
            f"{RUN_SECTION}.{stray}: unknown key"
            + _suggest(stray, ["experiment", "output_dir"])
        )
    if experiment is None:
        errors.append(f"{RUN_SECTION}.experiment: required key missing")
        raise ConfigError(errors)
    if experiment not in registry:
        known = ", ".join(sorted(registry))
        errors.append(
            f"{RUN_SECTION}.experiment: unknown experiment {experiment!r}"
            f" (registry: {known})"
        )
        raise ConfigError(errors)

    schema = {p.name: p for p in registry[experiment]}
    by_section: dict[str, dict[str, Param]] = {}
    for p in schema.values():
        by_section.setdefault(p.section, {})[p.key] = p

    values: dict[str, object] = {}
    for section in parser.sections():
        if section == RUN_SECTION:
            continue
        if section not in by_section:
            errors.append(
                f"[{section}]: unknown section"
                + _suggest(section, list(by_section))
            )
            continue
        section_schema = by_section[section]
        for key, raw in parser.items(section):
            if key not in section_schema:
                errors.append(
                    f"{section}.{key}: unknown key"
                    + _suggest(key, list(section_schema))
                )
                continue
            param = section_schema[key]
            value = _parse_scalar(raw, param.kind, param.name, errors)
            if value is None:
                continue
            values[param.name] = value

    for param in schema.values():
        if param.name not in values:
            if param.default is None:
                errors.append(f"{param.name}: required key missing")
                continue
            values[param.name] = param.default
        if param.check is not None:
            message = param.check(values[param.name])
            if message is not None:
                errors.append(f"{param.name}: {message}")

    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(
        experiment=experiment, output_dir=output_dir, params=values
    )


def _format_value(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, tuple):
        return ", ".join(_format_value(v) for v in value)
    return str(value)


def serialize_config(
    config: ExperimentConfig, include_output_dir: bool = True
) -> str:
    """Canonical INI text: sorted sections and keys, full-precision floats.

    ``parse_config(serialize_config(c))`` reproduces ``c`` exactly.
    """
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    parser.add_section(RUN_SECTION)
    parser.set(RUN_SECTION, "experiment", config.experiment)
    if include_output_dir:
        parser.set(RUN_SECTION, "output_dir", config.output_dir)
    for name in sorted(config.params):
        section, key = name.split(".", 1)
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, _format_value(config.params[name]))
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()


def config_hash(config: ExperimentConfig) -> str:
    """SHA-256 hex digest of the canonical serialization.

    The output directory is excluded: the hash identifies the computation,
    and two runs differing only in destination produce identical data.
    """
    text = serialize_config(config, include_output_dir=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
