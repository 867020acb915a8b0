"""Configuration parsing, validation, and round-trip tests."""

import re

import numpy as np
import pytest

import aerowrench.config as cfgm
from aerowrench.errors import ParseError, ValidationError


def ones(n):
    """n YAML ones, comma-separated."""
    return ", ".join(["1"] * n)


def write(tmp_path, text, name="cfg.yaml"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestDefaults:
    def test_empty_file_gives_full_defaults(self, tmp_path):
        cfg = cfgm.parse_config(write(tmp_path, ""))
        assert cfg.system.mass == 3.49
        assert cfg.system.gravity == 9.81
        assert cfg.filter.delta == 72.0
        assert cfg.run.t_step == 0.01
        assert cfg.run.duration == 70.0
        assert cfg.run.estimators == ("qukf", "ekf")
        assert np.allclose(np.diag(cfg.admittance.c_v), 1.59)
        assert cfg.filter.q_diag.shape == (19,)
        assert cfg.filter.q_diag[6] == 0.1 and cfg.filter.q_diag[-1] == 0.0
        assert len(cfg.profile.segments) == 4

    def test_packaged_default_file_matches_code_defaults(self):
        cfg = cfgm.parse_config(cfgm.default_config_path())
        assert cfg.to_dict() == cfgm.ScenarioConfig().to_dict()

    def test_partial_override_keeps_other_defaults(self, tmp_path):
        cfg = cfgm.parse_config(write(tmp_path, "run:\n  seed: 9\n"))
        assert cfg.run.seed == 9
        assert cfg.run.duration == 70.0
        assert cfg.system.mass == 3.49


class TestRoundTrip:
    def test_serialize_parse_identity(self, tmp_path):
        cfg = cfgm.ScenarioConfig()
        cfg.run.seed = 1234
        cfg.run.duration = 12.5
        cfg.filter.delta = 55.5
        cfg.system.mass = 2.75
        cfg.profile.segments[0].force = np.array([0.1, -0.2, 0.3])
        text = cfgm.serialize_config(cfg)
        cfg2 = cfgm.parse_config(write(tmp_path, text))
        assert cfg2.to_dict() == cfg.to_dict()
        # and a second cycle is stable
        cfg3 = cfgm.parse_config(write(tmp_path, cfgm.serialize_config(cfg2)))
        assert cfg3.to_dict() == cfg.to_dict()

    def test_default_serialization_is_pinned(self):
        # metrics.json records this digest: the serializer's bytes for the
        # default configuration may not move.
        assert (cfgm.config_digest(cfgm.ScenarioConfig())
                == "838824bf324748a3326d48cce4a5481bee116917cbb0b19dd4e8d5d34b77e888")
        text = cfgm.serialize_config(cfgm.ScenarioConfig())
        assert text.startswith("system:\n  mass: 3.49\n  inertia:\n")
        assert [ln for ln in text.splitlines() if not ln.startswith(" ")] == [
            "system:", "filter:", "admittance:", "profile:", "run:"]

    def test_digest_tracks_content(self):
        a = cfgm.ScenarioConfig()
        b = cfgm.ScenarioConfig()
        assert cfgm.config_digest(a) == cfgm.config_digest(b)
        b.run.seed = 1
        assert cfgm.config_digest(a) != cfgm.config_digest(b)


class TestParseErrors:
    def test_unknown_section(self, tmp_path):
        with pytest.raises(ParseError, match="unknown section 'fltr'"):
            cfgm.parse_config(write(tmp_path, "fltr:\n  delta: 3\n"))

    def test_unknown_key_names_field(self, tmp_path):
        with pytest.raises(ParseError, match="filter.detla"):
            cfgm.parse_config(write(tmp_path, "filter:\n  detla: 3\n"))

    def test_system_delta_rejected(self, tmp_path):
        # the observer gain lives in the filter section only
        with pytest.raises(ParseError, match="system.delta"):
            cfgm.parse_config(write(tmp_path, "system:\n  delta: 10\n"))

    def test_syntax_error_reports_line(self, tmp_path):
        bad = "run:\n  seed: 3\n bad indent: [\n"
        with pytest.raises(ParseError, match=r":\d+"):
            cfgm.parse_config(write(tmp_path, bad))

    def test_non_numeric_field(self, tmp_path):
        with pytest.raises(ParseError, match="system.mass"):
            cfgm.parse_config(write(tmp_path, "system:\n  mass: heavy\n"))

    def test_fractional_seed_rejected(self, tmp_path):
        with pytest.raises(ParseError, match="run.seed"):
            cfgm.parse_config(write(tmp_path, "run:\n  seed: 3.5\n"))

    @pytest.mark.parametrize("text, path", [
        ("run:\n  seed: true\n", "run.seed"),
        ("run:\n  duration: yes\n", "run.duration"),
        ("filter:\n  phi: true\n", "filter.phi"),
        ("filter:\n  r_diag: [on, 1, 1, 1, 1, 1, 1, 1, 1]\n", "filter.r_diag"),
        ("profile:\n  segments:\n    - {start: 1, end: 2, ramp: false}\n",
         "profile.segments[0].ramp")])
    def test_boolean_for_a_number_rejected(self, tmp_path, text, path):
        # float() and int() would take a YAML boolean as 1 or 0.
        with pytest.raises(ParseError, match=re.escape("field '%s' has invalid value" % path)):
            cfgm.parse_config(write(tmp_path, text))

    @pytest.mark.parametrize("text", [".inf", ".nan"])
    def test_non_finite_seed_rejected(self, tmp_path, text):
        with pytest.raises(ParseError, match="run.seed"):
            cfgm.parse_config(write(tmp_path, "run:\n  seed: %s\n" % text))

    @pytest.mark.parametrize("text, shown", [
        ("qukf", "'qukf'"), ("{qukf: 1}", "{'qukf': 1}")])
    def test_estimators_must_be_a_list(self, tmp_path, text, shown):
        # A scalar became its characters and a mapping its keys.
        with pytest.raises(ParseError, match=re.escape(
                "field 'run.estimators' has invalid value %s" % shown)):
            cfgm.parse_config(write(tmp_path, "run:\n  estimators: %s\n" % text))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="nope.yaml"):
            cfgm.parse_config(tmp_path / "nope.yaml")

    @pytest.mark.parametrize("name, value, text", [
        ("system", 0, "system: 0\n"), ("filter", "", "filter: ''\n"),
        ("run", [], "run: []\n"), ("admittance", False, "admittance: false\n"),
        ("profile", 0, "profile: 0\n")])
    def test_falsy_section_is_not_a_mapping(self, tmp_path, name, value, text):
        # Only a missing or null section takes the defaults.
        match = "section '%s' must be a mapping" % name
        with pytest.raises(ParseError, match=match):
            cfgm.ScenarioConfig.from_dict({name: value})
        with pytest.raises(ParseError, match=match):
            cfgm.parse_config(write(tmp_path, text))

    def test_null_section_takes_defaults(self, tmp_path):
        # An empty profile mapping takes the default segments, as any
        # missing key does.
        cfg = cfgm.parse_config(write(tmp_path, "system:\nfilter: null\nrun: ~\n"
                                                "profile: {}\n"))
        assert cfgm.config_digest(cfg) == cfgm.config_digest(cfgm.ScenarioConfig())

    def test_bare_segment_is_a_default_segment(self, tmp_path):
        cfg = cfgm.ScenarioConfig.from_dict({"profile": {"segments": [None]}})
        assert cfg.profile.segments[0].end == 0.0
        with pytest.raises(ValidationError, match=r"segments\[0\]\.end must exceed start"):
            cfgm.parse_config(write(tmp_path, "profile:\n  segments:\n    -\n"))

    def test_unknown_segment_key(self, tmp_path):
        text = ("profile:\n  segments:\n"
                "    - {start: 1.0, end: 2.0, forse: [1, 0, 0]}\n")
        with pytest.raises(ParseError, match=r"segments\[0\].forse"):
            cfgm.parse_config(write(tmp_path, text))


class TestValidation:
    def test_negative_mass_names_field(self, tmp_path):
        with pytest.raises(ValidationError, match="system.mass"):
            cfgm.parse_config(write(tmp_path, "system:\n  mass: -1.0\n"))

    def test_all_violations_listed(self, tmp_path):
        text = ("system:\n  mass: -1.0\n"
                "run:\n  duration: 0.001\n  estimators: [qukf, foo]\n")
        with pytest.raises(ValidationError) as exc:
            cfgm.parse_config(write(tmp_path, text))
        msgs = " | ".join(exc.value.violations)
        assert "system.mass" in msgs
        assert "run.duration" in msgs
        assert "run.estimators" in msgs

    def test_negative_seed_rejected(self, tmp_path):
        with pytest.raises(ValidationError,
                           match="run.seed must be a nonnegative integer, got -2"):
            cfgm.parse_config(write(tmp_path, "run:\n  seed: -2\n"))

    @pytest.mark.parametrize("dt", [float("inf"), float("nan"), 0.0, -0.01])
    def test_bad_step_named(self, dt):
        # An infinite step was reported as too short a duration.
        with pytest.raises(ValidationError) as exc:
            cfgm.RunConfig(t_step=dt).validate()
        assert exc.value.violations == [
            "run.t_step must be positive and finite, got %r" % (dt,)]

    @pytest.mark.parametrize("duration", [float("inf"), float("nan"), 0.001])
    def test_duration_without_a_finite_step_count(self, duration):
        # An infinite duration passed and then overflowed the step count;
        # then a non-finite one was reported as too short a run.
        with pytest.raises(ValidationError) as exc:
            cfgm.RunConfig(duration=duration).validate()
        assert exc.value.violations == [
            "run.duration must be finite, got %r" % (duration,)
            if not np.isfinite(duration)
            else "run.duration must cover at least one step"]

    @pytest.mark.parametrize("seed", [True, [0, True]])
    def test_boolean_seed_rejected(self, seed):
        # bool is an int, so True ran seed 1.
        with pytest.raises(ValidationError) as exc:
            cfgm.RunConfig(seed=seed).validate()
        assert exc.value.violations == [
            "run.seed must be a nonnegative integer, got True"]

    @pytest.mark.parametrize("text, field", [
        ("system:\n  alloc_weights: [.nan, %s]\n" % ones(7), "system.alloc_weights"),
        ("system:\n  attach_1: [.nan, 0, 0]\n", "system.attach_1"),
        ("system:\n  gravity: .inf\n", "system.gravity"),
        ("system:\n  u_max: .inf\n", "system.u_max"),
        ("system:\n  inertia: [[.inf, 0, 0], [0, 1, 0], [0, 0, 1]]\n", "system.inertia"),
        ("profile:\n  segments:\n    - {start: 1, end: 2, ramp: .nan}\n",
         "profile.segments[0].ramp"),
        ("profile:\n  segments:\n    - {start: 1, end: 2, force: [.nan, 0, 0]}\n",
         "profile.segments[0] force"),
        ("profile:\n  segments:\n    - {start: 1, end: .inf}\n", "profile.segments[0].end"),
        ("admittance:\n  c_v: [[.nan, 0, 0], [0, 1, 0], [0, 0, 1]]\n", "admittance.c_v"),
        ("filter:\n  q_diag: [.nan, %s, 0]\n" % ones(17), "filter.q_diag"),
        ("filter:\n  r_diag: [.inf, %s]\n" % ones(8), "filter.r_diag"),
        ("filter:\n  phi: .inf\n", "filter.phi"),
        ("filter:\n  gamma: .nan\n", "filter.gamma"),
        ("filter:\n  sigma: .inf\n", "filter.sigma"),
        ("filter:\n  delta: .inf\n", "filter.delta")])
    def test_non_finite_number_named(self, tmp_path, text, field):
        # Each of these passed validation and then failed inside the run,
        # or ran silently with a meaningless profile.
        with pytest.raises(ValidationError) as exc:
            cfgm.parse_config(write(tmp_path, text))
        assert exc.value.violations
        assert all(m.startswith(field) for m in exc.value.violations), exc.value.violations

    def test_filter_diag_shapes(self, tmp_path):
        with pytest.raises(ValidationError, match="filter.r_diag"):
            cfgm.parse_config(write(tmp_path, "filter:\n  r_diag: [1.0, 2.0]\n"))

    def test_trailing_noise_pinned(self, tmp_path):
        text = "filter:\n  q_diag: [%s, 1.0]\n" % ", ".join(["0.1"] * 18)
        with pytest.raises(ValidationError, match="q_diag last entry"):
            cfgm.parse_config(write(tmp_path, text))


class TestAssembly:
    def test_delta_folds_into_system_params(self, tmp_path):
        cfg = cfgm.parse_config(write(tmp_path, "filter:\n  delta: 31.0\n"))
        assert cfg.filter.delta == 31.0
        assert cfg.system_params().delta == 31.0

    def test_noise_and_scaling_views(self):
        cfg = cfgm.ScenarioConfig()
        nc = cfg.noise_config()
        assert np.array_equal(nc.q_diag, cfg.filter.q_diag)
        assert cfg.scaling() == (1.0, 2.0, 0.0)
