"""Config serialization: dict/JSON round-trips and validation errors."""

import json

import pytest

from repro.codec import ClassicalCodecConfig, CTVCConfig, CTVCNet
from repro.hw import NVCAConfig
from repro.hw.arch import BufferSpec
from repro.pipeline import CONFIG_TYPES, ConfigError, load_config
from repro.video import SceneConfig, generate_sequence

ALL_CONFIGS = [
    CTVCConfig(channels=8, qstep=16.0, intra_qp=12.0),
    ClassicalCodecConfig(qp=24.0, half_pel=True),
    NVCAConfig(rho=0.25, input_buffer=BufferSpec("input", 128.0, banks=8)),
    SceneConfig(height=64, width=96, pan_velocity=(0.1, -2.5)),
]


class TestRoundTrips:
    @pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: type(c).__name__)
    def test_dict_round_trip(self, config):
        restored = type(config).from_dict(config.to_dict())
        assert restored == config

    @pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: type(c).__name__)
    def test_json_round_trip(self, config):
        text = config.to_json()
        json.loads(text)  # genuinely valid JSON
        assert type(config).from_json(text) == config

    @pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: type(c).__name__)
    def test_to_dict_is_json_types_only(self, config):
        # A second dump after a parse round-trip must be identical —
        # i.e. nothing non-JSON (tuples, numpy, dataclasses) leaks out.
        once = json.loads(config.to_json())
        assert json.loads(json.dumps(once)) == once

    def test_defaults_round_trip(self):
        for cls in (CTVCConfig, ClassicalCodecConfig, NVCAConfig, SceneConfig):
            assert cls.from_dict(cls().to_dict()) == cls()

    def test_partial_dict_uses_defaults(self):
        cfg = CTVCConfig.from_dict({"channels": 4})
        assert cfg.channels == 4
        assert cfg.qstep == CTVCConfig().qstep

    def test_tuple_coercion(self):
        cfg = SceneConfig.from_dict({"pan_velocity": [1, 2]})
        assert cfg.pan_velocity == (1.0, 2.0)

    def test_nested_buffer_spec(self):
        data = NVCAConfig().to_dict()
        data["weight_buffer"]["kbytes"] = 128.0
        cfg = NVCAConfig.from_dict(data)
        assert isinstance(cfg.weight_buffer, BufferSpec)
        assert cfg.weight_buffer.kbytes == 128.0

    def test_optional_none_round_trip(self):
        cfg = CTVCConfig(intra_qp=None)
        assert CTVCConfig.from_dict(cfg.to_dict()).intra_qp is None

    def test_replace(self):
        cfg = CTVCConfig().replace(qstep=32.0)
        assert cfg.qstep == 32.0
        assert cfg.channels == CTVCConfig().channels


class TestValidation:
    def test_unknown_field_names_valid_fields(self):
        with pytest.raises(ConfigError, match="unknown field.*chanels"):
            CTVCConfig.from_dict({"chanels": 3})
        with pytest.raises(ConfigError, match="valid fields"):
            SceneConfig.from_dict({"hieght": 1})

    def test_wrong_type_names_field(self):
        with pytest.raises(ConfigError, match="CTVCConfig.channels"):
            CTVCConfig.from_dict({"channels": "twelve"})

    def test_tuple_arity_checked(self):
        with pytest.raises(ConfigError, match="pan_velocity"):
            SceneConfig.from_dict({"pan_velocity": [1.0, 2.0, 3.0]})

    def test_domain_validation_propagates(self):
        with pytest.raises(ConfigError, match="rho"):
            NVCAConfig.from_dict({"rho": 1.5})

    @pytest.mark.parametrize(
        "fields,message",
        [
            ({"channels": 0}, "channels must be >= 2, got 0"),
            ({"channels": 1, "heads": 1}, "channels must be >= 2, got 1"),
            ({"channels": 5}, "2\\*channels must be divisible by heads=4"),
            ({"channels": 6, "heads": 0}, "heads must be >= 1"),
        ],
    )
    def test_ctvc_geometry_fails_at_construction(self, fields, message):
        with pytest.raises(ConfigError, match=message):
            CTVCConfig(**fields)
        with pytest.raises(ConfigError, match="CTVCConfig: " + message):
            CTVCConfig.from_dict(fields)

    def test_ctvc_smallest_geometry_builds(self):
        CTVCNet(CTVCConfig(channels=2))
        CTVCNet(CTVCConfig(channels=3, heads=2))

    @pytest.mark.parametrize(
        "fields,message",
        [
            ({"frames": 0}, "frames must be >= 1, got 0"),
            ({"height": 7}, "height must be >= 8 with num_objects > 0, got 7"),
            ({"width": 4}, "width must be >= 8 with num_objects > 0, got 4"),
            ({"height": 0, "num_objects": 0}, "height must be >= 1, got 0"),
        ],
    )
    def test_scene_geometry_fails_at_construction(self, fields, message):
        with pytest.raises(ConfigError, match=message):
            SceneConfig(**fields)

    @pytest.mark.parametrize(
        "fields",
        [
            {"height": 8, "width": 8},
            {"height": 8, "width": 200},
            {"height": 1, "width": 1, "num_objects": 0},
        ],
    )
    def test_smallest_scenes_render(self, fields):
        frames = generate_sequence(SceneConfig(frames=2, **fields))
        assert [f.shape for f in frames] == [(3, fields["height"], fields["width"])] * 2

    def test_invalid_json_text(self):
        with pytest.raises(ConfigError, match="invalid JSON"):
            CTVCConfig.from_json("{not json")

    def test_non_mapping_rejected(self):
        with pytest.raises(ConfigError, match="mapping"):
            CTVCConfig.from_dict([1, 2, 3])


class TestLoadConfig:
    def test_type_discriminator(self):
        for name, cls in CONFIG_TYPES.items():
            cfg = load_config({"type": name})
            assert isinstance(cfg, cls)

    def test_written_back_document_loads(self):
        cfg = CTVCConfig(channels=8)
        doc = {"type": "ctvc", **cfg.to_dict()}
        assert load_config(doc) == cfg

    def test_missing_type(self):
        with pytest.raises(ConfigError, match="'type'"):
            load_config({"channels": 8})

    def test_unknown_type(self):
        with pytest.raises(ConfigError, match="unknown config type"):
            load_config({"type": "av1"})
