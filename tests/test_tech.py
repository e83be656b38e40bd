"""The pluggable device-technology layer.

Pins the three guarantees the `TechnologyProfile` refactor must keep:

1. **Byte-identity of the default** — the ``reram`` profile is the
   pre-profile ``HardwareParams()`` field for field, and every content
   fingerprint (params, config, serve job key) is *digest-identical*
   to the values recorded before the refactor, so existing eval memos
   and store entries stay valid.
2. **Technology separation** — two technologies never share an eval
   memo entry or a store key, even when a registered profile copies
   another's constants under a new name.
3. **Validated, serializable profiles** — malformed profiles (missing
   table entries, non-monotone power curves, bad domains) are rejected
   at construction, and every built-in survives a JSON round trip.

Plus the satellite regression: no module may default-construct a bare
``HardwareParams()`` again — construction routes through the registry.
"""

from __future__ import annotations

import ast
import dataclasses
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.config import SynthesisConfig
from repro.core.executor import config_fingerprint, params_fingerprint
from repro.errors import ConfigurationError
from repro.hardware.params import HardwareParams
from repro.hardware.tech import (
    BUILTIN_TECHNOLOGIES,
    DEFAULT_TECHNOLOGY,
    TechnologyProfile,
    available_technologies,
    default_params,
    get_technology,
    load_technology,
    register_technology,
    unregister_technology,
)
from repro.serve.job import JobRequest, job_content_key
from repro.nn import lenet5

SRC_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Fingerprints recorded on the pre-profile tree (PR 4 head). The
#: refactor's hard promise: default-technology keys never move.
PINNED_PARAMS_FP = "3dd4e2a54ef76d2a"
PINNED_CONFIG_FP_FAST_2W = "101f9fe6705bffb0"
PINNED_CONFIG_FP_FULL_50W = "d6018dea5177428e"
PINNED_JOB_KEY_LENET5_FAST_2W = "0adb10f6bd13ed88e923b60108964df7"


def _profile_kwargs(**overrides):
    """A valid profile's constructor kwargs (reram base + overrides)."""
    base = get_technology("reram")
    kwargs = dict(base.device_constants())
    kwargs.update(
        name="test-tech",
        description="unit-test profile",
        cell="reram",
        xb_size_choices=base.xb_size_choices,
        res_rram_choices=base.res_rram_choices,
        res_dac_choices=base.res_dac_choices,
        ratio_rram_choices=base.ratio_rram_choices,
        adc_resolution_range=base.adc_resolution_range,
    )
    kwargs.update(overrides)
    return kwargs


# ----------------------------------------------------------------------
# 1. Byte-identity of the default technology
# ----------------------------------------------------------------------
class TestDefaultIdentity:
    def test_reram_params_equal_default_constructed(self):
        assert HardwareParams.from_technology("reram") == HardwareParams()
        assert default_params() == HardwareParams()

    def test_params_fingerprint_pinned(self):
        assert params_fingerprint(HardwareParams()) == PINNED_PARAMS_FP
        assert (
            params_fingerprint(HardwareParams.from_technology("reram"))
            == PINNED_PARAMS_FP
        )

    def test_config_fingerprints_pinned(self):
        fast = SynthesisConfig.fast(total_power=2.0)
        assert config_fingerprint(fast) == PINNED_CONFIG_FP_FAST_2W
        full = SynthesisConfig(total_power=50.0)
        assert config_fingerprint(full) == PINNED_CONFIG_FP_FULL_50W

    def test_serve_job_key_pinned(self):
        key = job_content_key(
            lenet5(), SynthesisConfig.fast(total_power=2.0)
        )
        assert key == PINNED_JOB_KEY_LENET5_FAST_2W

    def test_explicit_tech_reram_is_the_same_key(self):
        """Asking for reram by name must alias the implicit default."""
        implicit = SynthesisConfig.fast(total_power=2.0)
        explicit = SynthesisConfig.fast(total_power=2.0, tech="reram")
        assert config_fingerprint(implicit) == config_fingerprint(explicit)
        assert implicit.params == explicit.params

    def test_fast_preset_grids_unchanged_for_reram(self):
        config = SynthesisConfig.fast(total_power=2.0)
        assert config.ratio_rram_choices == (0.3,)
        assert config.res_rram_choices == (2,)
        assert config.xb_size_choices == (128, 256)
        assert config.res_dac_choices == (1, 2)

    def test_full_default_grids_are_the_table_one_domains(self):
        config = SynthesisConfig(total_power=50.0)
        assert config.ratio_rram_choices == (0.1, 0.2, 0.3, 0.4)
        assert config.res_rram_choices == (1, 2, 4)
        assert config.xb_size_choices == (128, 256, 512)
        assert config.res_dac_choices == (1, 2, 4)


# ----------------------------------------------------------------------
# 2. Registry behavior
# ----------------------------------------------------------------------
class TestRegistry:
    def test_builtins_registered(self):
        names = available_technologies()
        for builtin in BUILTIN_TECHNOLOGIES:
            assert builtin in names
        assert names[0] == DEFAULT_TECHNOLOGY

    def test_unknown_name_raises_with_choices(self):
        with pytest.raises(ConfigurationError, match="unknown technology"):
            get_technology("finfet-9000")

    def test_get_is_idempotent_on_profiles(self):
        profile = get_technology("sram-pim")
        assert get_technology(profile) is profile

    def test_register_and_unregister_roundtrip(self):
        profile = TechnologyProfile(**_profile_kwargs(name="unit-reram"))
        try:
            register_technology(profile)
            assert "unit-reram" in available_technologies()
            assert get_technology("unit-reram") == profile
            with pytest.raises(ConfigurationError,
                               match="already registered"):
                register_technology(profile)
            register_technology(profile, replace=True)  # explicit ok
        finally:
            unregister_technology("unit-reram")
        assert "unit-reram" not in available_technologies()

    @pytest.mark.parametrize("name", BUILTIN_TECHNOLOGIES)
    def test_builtin_cannot_be_replaced_or_removed(self, name):
        base = get_technology(name)
        impostor = dataclasses.replace(base, crossbar_latency=1e-12)
        with pytest.raises(ConfigurationError, match="cannot be"):
            register_technology(impostor, replace=True)
        with pytest.raises(ConfigurationError, match="cannot be"):
            unregister_technology(name)
        # Re-registering the *identical* built-in (an unedited export)
        # is a no-op success, not an error.
        register_technology(base, replace=True)
        assert get_technology(name) == base

    def test_sram_pim_is_single_bit(self):
        profile = get_technology("sram-pim")
        assert profile.res_rram_choices == (1,)
        assert profile.cell == "sram"


# ----------------------------------------------------------------------
# 3. Validation
# ----------------------------------------------------------------------
class TestValidation:
    def test_missing_crossbar_table_entry(self):
        kwargs = _profile_kwargs()
        kwargs["crossbar_power"] = {128: 0.3e-3, 256: 1.2e-3}  # no 512
        with pytest.raises(ConfigurationError,
                           match="crossbar_power has no entry"):
            TechnologyProfile(**kwargs)

    def test_missing_dac_table_entry(self):
        kwargs = _profile_kwargs()
        kwargs["dac_power"] = {1: 4e-6, 2: 11e-6}  # no 4
        with pytest.raises(ConfigurationError,
                           match="dac_power has no entry"):
            TechnologyProfile(**kwargs)

    def test_adc_curve_gap_inside_range(self):
        kwargs = _profile_kwargs()
        adc = dict(kwargs["adc_power"])
        del adc[10]
        kwargs["adc_power"] = adc
        with pytest.raises(ConfigurationError,
                           match=r"missing resolutions \[10\]"):
            TechnologyProfile(**kwargs)

    def test_adc_entries_outside_declared_range_rejected(self):
        """Stray table keys would silently widen the effective range
        (HardwareParams derives it from the keys) — reject them."""
        kwargs = _profile_kwargs()
        kwargs["adc_resolution_range"] = (7, 10)  # table still 7..14
        with pytest.raises(ConfigurationError,
                           match="outside the declared"):
            TechnologyProfile(**kwargs)

    def test_effective_range_always_matches_declaration(self):
        for name in BUILTIN_TECHNOLOGIES:
            profile = get_technology(name)
            params = HardwareParams.from_technology(name)
            assert params.adc_resolution_range == (
                profile.adc_resolution_range
            )

    def test_domains_normalize_sorted(self):
        """fast()'s grid carving relies on ascending domains."""
        profile = TechnologyProfile(**_profile_kwargs(
            xb_size_choices=(512, 128, 256),
            res_dac_choices=(4, 1, 2),
        ))
        assert profile.xb_size_choices == (128, 256, 512)
        assert profile.res_dac_choices == (1, 2, 4)

    def test_non_monotone_adc_curve(self):
        kwargs = _profile_kwargs()
        adc = dict(kwargs["adc_power"])
        adc[12] = adc[8] / 2  # 12-bit cheaper than 11-bit
        kwargs["adc_power"] = adc
        with pytest.raises(ConfigurationError, match="non-monotone"):
            TechnologyProfile(**kwargs)

    @pytest.mark.parametrize("domain,value", [
        ("xb_size_choices", ()),
        ("res_rram_choices", (0,)),
        ("res_dac_choices", (1, 1)),
        ("ratio_rram_choices", (0.3, 1.5)),
    ])
    def test_bad_domains(self, domain, value):
        with pytest.raises(ConfigurationError):
            TechnologyProfile(**_profile_kwargs(**{domain: value}))

    def test_bad_adc_range(self):
        with pytest.raises(ConfigurationError,
                           match="adc_resolution_range"):
            TechnologyProfile(
                **_profile_kwargs(adc_resolution_range=(14, 7))
            )

    def test_res_rram_above_weight_precision(self):
        with pytest.raises(ConfigurationError,
                           match="exceeds the weight precision"):
            TechnologyProfile(
                **_profile_kwargs(res_rram_choices=(1, 32))
            )

    def test_nonpositive_scalar(self):
        with pytest.raises(ConfigurationError, match="must be positive"):
            TechnologyProfile(**_profile_kwargs(crossbar_latency=0.0))

    @pytest.mark.parametrize("section,field,value,message", [
        ("domains", "xb_size_choices", 5,
         "xb_size_choices must be a list of integers, got 5"),
        ("domains", "xb_size_choices", None,
         "xb_size_choices must be a list of integers, got None"),
        ("domains", "xb_size_choices", ["a"],
         "xb_size_choices must be a list of integers, got ['a']"),
        ("domains", "xb_size_choices", "128",
         "xb_size_choices must be a list of integers, got '128'"),
        ("domains", "adc_resolution_range", [7],
         "adc_resolution_range must be two integers [low, high], "
         "got [7]"),
        ("domains", "adc_resolution_range", [7, 10, 14],
         "adc_resolution_range must be two integers [low, high], "
         "got [7, 10, 14]"),
        ("device", "crossbar_latency", None,
         "crossbar_latency must be a finite number, got None"),
        ("device", "crossbar_latency", "1e-7",
         "crossbar_latency must be a finite number, got '1e-7'"),
        ("device", "crossbar_latency", json.loads("NaN"),
         "crossbar_latency must be a finite number, got nan"),
        ("device", "act_precision", 16.5,
         "act_precision must be an integer, got 16.5"),
        ("domains", "res_rram_choices", [1.5],
         "res_rram_choices must be a list of integers, got [1.5]"),
    ], ids=[
        "domain-int", "domain-null", "domain-of-strings", "domain-string",
        "adc-range-one", "adc-range-three", "constant-null",
        "constant-string", "constant-nan", "precision-fraction",
        "res-rram-fraction",
    ])
    def test_malformed_document_names_the_field(
        self, section, field, value, message
    ):
        """Each malformed field of an exported document fails at parse
        time with a ConfigurationError naming the technology and the
        field, never a bare TypeError or ValueError, and never passes:
        NaN (which Python's JSON reader accepts) would otherwise reach
        the DSE, and a fractional integer would be used as is."""
        payload = get_technology("reram").to_payload()
        payload[section][field] = value
        with pytest.raises(
            ConfigurationError,
            match=re.escape(f"technology 'reram': {message}"),
        ):
            TechnologyProfile.from_payload(payload)

    def test_non_numeric_table_value_names_the_entry(self):
        payload = get_technology("reram").to_payload()
        payload["device"]["adc_power"]["7"] = "x"
        with pytest.raises(
            ConfigurationError,
            match=re.escape(
                "technology 'reram': adc_power[7] must be a finite "
                "number, got 'x'"
            ),
        ):
            TechnologyProfile.from_payload(payload)

    def test_null_name_is_rejected(self):
        """A null name must not register as the string 'None'."""
        payload = get_technology("reram").to_payload()
        payload["name"] = None
        with pytest.raises(
            ConfigurationError,
            match="technology name must be a non-empty string, got None",
        ):
            TechnologyProfile.from_payload(payload)

    @pytest.mark.parametrize("field", ["description", "cell"])
    def test_null_text_field_is_rejected(self, field):
        """Nor may a null description or cell read as 'None'."""
        payload = get_technology("reram").to_payload()
        payload[field] = None
        with pytest.raises(
            ConfigurationError,
            match=f"technology 'reram': {field} must be a string, got None",
        ):
            TechnologyProfile.from_payload(payload)

    def test_config_rejects_grid_outside_tables(self):
        with pytest.raises(ConfigurationError,
                           match="no crossbar power for size 64"):
            SynthesisConfig(total_power=2.0, xb_size_choices=(64,))

    def test_config_rejects_cell_resolution_technology_lacks(self):
        with pytest.raises(ConfigurationError,
                           match="not offered by technology"):
            SynthesisConfig(
                total_power=2.0, tech="sram-pim", res_rram_choices=(2,)
            )

    def test_config_rejects_unknown_technology(self):
        with pytest.raises(ConfigurationError, match="unknown technology"):
            SynthesisConfig(total_power=2.0, tech="finfet-9000")


# ----------------------------------------------------------------------
# 4. JSON round trip
# ----------------------------------------------------------------------
class TestSerialization:
    @pytest.mark.parametrize("name", BUILTIN_TECHNOLOGIES)
    def test_payload_roundtrip(self, name):
        profile = get_technology(name)
        clone = TechnologyProfile.from_payload(
            json.loads(profile.to_json())
        )
        assert clone == profile
        # Materialized params must also match exactly (int keys back).
        assert (
            HardwareParams.from_technology(clone)
            == HardwareParams.from_technology(profile)
        )

    def test_file_roundtrip_via_registry(self, tmp_path):
        profile = get_technology("reram-lp")
        document = dataclasses.replace(profile, name="reram-lp-copy")
        path = tmp_path / "tech.json"
        path.write_text(document.to_json(), encoding="utf-8")
        try:
            loaded = load_technology(path)
            assert loaded == document
            assert "reram-lp-copy" in available_technologies()
        finally:
            unregister_technology("reram-lp-copy")

    def test_missing_device_constant_rejected(self):
        payload = get_technology("reram").to_payload()
        del payload["device"]["adc_sample_rate"]
        with pytest.raises(ConfigurationError,
                           match="missing device constants"):
            TechnologyProfile.from_payload(payload)

    def test_missing_domain_rejected(self):
        payload = get_technology("reram").to_payload()
        del payload["domains"]["res_rram_choices"]
        with pytest.raises(ConfigurationError, match="missing domains"):
            TechnologyProfile.from_payload(payload)

    def test_unknown_field_rejected(self):
        payload = get_technology("reram").to_payload()
        payload["flux_capacitor"] = 1.21
        with pytest.raises(ConfigurationError, match="unknown technology"):
            TechnologyProfile.from_payload(payload)

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            load_technology(path)


# ----------------------------------------------------------------------
# 5. Technology separation in content keys
# ----------------------------------------------------------------------
class TestTechnologySeparation:
    def test_params_fingerprints_differ_across_builtins(self):
        prints = {
            name: params_fingerprint(HardwareParams.from_technology(name))
            for name in BUILTIN_TECHNOLOGIES
        }
        assert len(set(prints.values())) == len(prints)

    def test_job_keys_never_cross_technologies(self):
        model = lenet5()
        keys = {
            name: job_content_key(
                model, SynthesisConfig.fast(total_power=2.0, tech=name)
            )
            for name in BUILTIN_TECHNOLOGIES
        }
        assert len(set(keys.values())) == len(keys)
        assert keys["reram"] == PINNED_JOB_KEY_LENET5_FAST_2W

    def test_same_constants_different_name_still_separate(self):
        """A registered copy of reram must not alias reram's keys."""
        copy = TechnologyProfile(**_profile_kwargs(name="reram-clone"))
        register_technology(copy)
        try:
            a = SynthesisConfig.fast(total_power=2.0)
            b = SynthesisConfig.fast(total_power=2.0, tech="reram-clone")
            # Identical constants by construction...
            assert dataclasses.replace(
                b.params, technology="reram"
            ) == a.params
            # ...but both key halves split on the name.
            assert params_fingerprint(a.params) != params_fingerprint(
                b.params
            )
            assert config_fingerprint(a) != config_fingerprint(b)
            assert job_content_key(lenet5(), a) != job_content_key(
                lenet5(), b
            )
        finally:
            unregister_technology("reram-clone")

    def test_serve_request_tech_override_changes_key(self):
        base = JobRequest(model="lenet5", total_power=2.0)
        tech = JobRequest(
            model="lenet5", total_power=2.0,
            overrides={"tech": "sram-pim"},
        )
        assert base.content_key() != tech.content_key()
        assert base.content_key() == PINNED_JOB_KEY_LENET5_FAST_2W


# ----------------------------------------------------------------------
# 6. The bare-construction regression grep
# ----------------------------------------------------------------------
class TestNoBareDefaultConstruction:
    def test_no_bare_hardware_params_in_src(self):
        """Every ``HardwareParams()`` site must route through the
        technology registry (``from_technology`` / ``default_params``).

        AST-based so docstrings/comments don't count: an offender is an
        argument-free ``HardwareParams(...)`` call — with arguments it
        is a parameterized construction (the registry's own
        materialization path), which is fine.
        """
        offenders = []
        for path in sorted(SRC_ROOT.rglob("*.py")):
            rel = path.relative_to(SRC_ROOT).as_posix()
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                callee = node.func
                name = (
                    callee.id if isinstance(callee, ast.Name)
                    else callee.attr if isinstance(callee, ast.Attribute)
                    else None
                )
                if (name == "HardwareParams" and not node.args
                        and not node.keywords):
                    offenders.append(f"{rel}:{node.lineno}")
        assert not offenders, (
            "bare HardwareParams() default-construction found — route "
            "through HardwareParams.from_technology / "
            "repro.hardware.tech.default_params instead:\n"
            + "\n".join(offenders)
        )


# ----------------------------------------------------------------------
# 7. Profile-fields mirror
# ----------------------------------------------------------------------
class TestFieldMirror:
    def test_profile_covers_every_hardware_param(self):
        """Adding a constant to HardwareParams must extend the profile
        (and its JSON schema) too — the mirror is load-bearing for
        ``from_technology``."""
        param_fields = {
            f.name for f in dataclasses.fields(HardwareParams)
        } - {"technology"}
        profile_fields = {
            f.name for f in dataclasses.fields(TechnologyProfile)
        }
        missing = param_fields - profile_fields
        assert not missing, (
            f"TechnologyProfile is missing device constants {missing}"
        )

    def test_cli_repro_tech_runs(self):
        """`repro tech list/show/export` end to end (subprocess so the
        registry state is pristine)."""
        result = subprocess.run(
            [sys.executable, "-m", "repro", "tech", "list"],
            capture_output=True, text=True,
            cwd=SRC_ROOT.parent.parent,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 0, result.stderr
        for name in BUILTIN_TECHNOLOGIES:
            assert name in result.stdout
