"""Configuration serialization: ChipConfig and ChipSpec to/from JSON.

Experiment reproducibility plumbing: a configuration can be captured
next to its results and reloaded bit-exactly. Latency rows serialize as
two-element lists; unknown keys are rejected loudly (a config file from
a different library version should fail, not half-apply).

The same contract covers the exploration layer's
:class:`~repro.explore.ChipSpec` (``spec_to_json`` and friends): a
five-knob chip shape serializes to a flat JSON object, reloads
validated, and — because the dictionary form is canonical — doubles as
the cache-key material the experiment families embed in their
:class:`~repro.jobs.spec.JobSpec` payloads.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any

from repro.config import ChipConfig, LatencyTable
from repro.errors import ConfigError


def config_to_dict(config: ChipConfig) -> dict[str, Any]:
    """A JSON-safe dictionary capturing every field."""
    out: dict[str, Any] = {}
    for field in dataclasses.fields(ChipConfig):
        value = getattr(config, field.name)
        if isinstance(value, LatencyTable):
            out[field.name] = {
                row.name: list(getattr(value, row.name))
                for row in dataclasses.fields(LatencyTable)
            }
        else:
            out[field.name] = value
    return out


def config_from_dict(data: dict[str, Any]) -> ChipConfig:
    """Rebuild a ChipConfig; validates keys and the result."""
    known = {f.name for f in dataclasses.fields(ChipConfig)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kwargs = dict(data)
    if "latency" in kwargs and isinstance(kwargs["latency"], dict):
        latency_fields = {f.name for f in dataclasses.fields(LatencyTable)}
        bad = set(kwargs["latency"]) - latency_fields
        if bad:
            raise ConfigError(f"unknown latency rows: {sorted(bad)}")
        kwargs["latency"] = LatencyTable(**{
            name: tuple(pair) for name, pair in kwargs["latency"].items()
        })
    return ChipConfig(**kwargs)


def config_from_json(text: str) -> ChipConfig:
    """Parse a JSON string back into a validated ChipConfig."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as error:
        raise ConfigError(f"bad config JSON: {error}") from None
    if not isinstance(data, dict):
        raise ConfigError("config JSON must be an object")
    return config_from_dict(data)


def load_config(path: str) -> ChipConfig:
    """Read a configuration from a file."""
    with open(path, encoding="utf-8") as handle:
        return config_from_json(handle.read())


# ---------------------------------------------------------------------------
# ChipSpec round trip (the exploration layer's five-knob chip shapes)
# ---------------------------------------------------------------------------
def spec_to_dict(spec) -> dict[str, int]:
    """A JSON-safe dictionary for a :class:`~repro.explore.ChipSpec`."""
    return spec.to_dict()


def spec_from_dict(data: dict[str, Any]):
    """Rebuild a validated :class:`~repro.explore.ChipSpec`."""
    from repro.explore.chipspec import ChipSpec

    return ChipSpec.from_dict(data)


def spec_to_json(spec, indent: int = 2) -> str:
    """Serialize a chip spec to a JSON string."""
    return json.dumps(spec_to_dict(spec), indent=indent, sort_keys=True)


def spec_from_json(text: str):
    """Parse a JSON string back into a validated chip spec."""
    from repro.errors import ExploreError

    try:
        data = json.loads(text)
    except json.JSONDecodeError as error:
        raise ExploreError(f"bad chip-spec JSON: {error}") from None
    if not isinstance(data, dict):
        raise ExploreError("chip-spec JSON must be an object")
    return spec_from_dict(data)


def save_spec(spec, path: str) -> None:
    """Write a chip spec to a file."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(spec_to_json(spec))


def load_spec(path: str):
    """Read a chip spec from a file."""
    with open(path, encoding="utf-8") as handle:
        return spec_from_json(handle.read())
