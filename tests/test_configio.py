"""Tests for configuration serialization."""

import json

import pytest

from repro.config import ChipConfig, LatencyTable
from repro.configio import (
    config_from_dict,
    config_from_json,
    config_to_dict,
    load_config,
)
from repro.errors import ConfigError


def config_to_json(config: ChipConfig) -> str:
    """The JSON text :func:`load_config` reads back."""
    return json.dumps(config_to_dict(config))


class TestRoundtrip:
    def test_paper_config(self):
        config = ChipConfig.paper()
        again = config_from_json(config_to_json(config))
        assert again == config

    def test_custom_config(self):
        config = ChipConfig(
            n_threads=64, threads_per_quad=8, quads_per_icache=1,
            n_memory_banks=8,
            latency=LatencyTable(fp_add=(2, 7)),
            store_miss_fetches_line=True,
        )
        again = config_from_json(config_to_json(config))
        assert again == config
        assert again.latency.fp_add == (2, 7)

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "chip.json"
        path.write_text(config_to_json(ChipConfig.small()))
        assert load_config(str(path)) == ChipConfig.small()


class TestValidation:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"n_threads": 128, "warp_size": 32})

    def test_unknown_latency_row_rejected(self):
        data = config_to_dict(ChipConfig.paper())
        data["latency"]["teleport"] = [0, 0]
        with pytest.raises(ConfigError):
            config_from_dict(data)

    def test_invalid_geometry_rejected(self):
        data = config_to_dict(ChipConfig.paper())
        data["n_threads"] = 130
        with pytest.raises(ConfigError):
            config_from_dict(data)

    def test_bad_json_rejected(self):
        with pytest.raises(ConfigError):
            config_from_json("{nope")
        with pytest.raises(ConfigError):
            config_from_json("[1, 2]")

    def test_dict_is_json_safe(self):
        import json
        json.dumps(config_to_dict(ChipConfig.paper()))
