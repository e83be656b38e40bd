"""Pluggable device-technology layer: the :class:`TechnologyProfile` registry.

The paper pins one ReRAM technology (Table III, constants deferred to
ISAAC and MNSIM — see :mod:`repro.hardware.params` for the derivations)
but claims device agnosticism (§VI): the flow only needs device
parameters. This module makes that claim operational. A *technology
profile* is a named, validated, serializable bundle of every device
constant :class:`~repro.hardware.params.HardwareParams` carries **plus**
the exploration domains of Table I (crossbar sizes, cell resolutions,
DAC resolutions, RatioRram grid, ADC resolution range) — the knobs that
were previously module-level constants and therefore impossible to vary
per device.

Three profiles ship built in:

``reram``
    Today's Table III ReRAM device. Byte-identical to a
    default-constructed ``HardwareParams()`` — golden fixtures, eval
    memos and serve content keys are unchanged under this profile.
``reram-lp``
    A low-power ReRAM corner: slower crossbar reads, cheaper (and
    slower) ADC curve, reduced peripheral power. Same domains.
``sram-pim``
    An SRAM compute-in-memory cell: single-bit cells only (no
    device-resolution multi-bit storage), much faster reads, higher
    leakage (read power and area), a wider-but-lower ADC range.

User-defined devices plug in via :func:`register_technology` (a live
profile object) or :func:`load_technology` (a JSON document, the
round-trip of :meth:`TechnologyProfile.to_payload`).

Content-key contract
--------------------
A profile's constants flow into :class:`HardwareParams` via
:meth:`HardwareParams.from_technology`, which stamps
``params.technology`` with the profile name. Both the executor's eval
memo and the serve layer's job/store keys fingerprint every
``HardwareParams`` field *and* the ``SynthesisConfig.tech`` name (the
default technology is skipped for backward compatibility, keeping
pre-existing ``reram`` keys stable) — so two technologies can never
share a memoized evaluation or a stored result, even if a registered
profile happens to copy another's constants under a new name.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Dict, List, Mapping, Tuple, Union

from repro.errors import ConfigurationError
from repro.hardware.params import HardwareParams

#: The technology every pre-profile artifact was produced under.
DEFAULT_TECHNOLOGY = "reram"

#: Schema tag of the JSON wire format (bump on incompatible changes).
_PAYLOAD_SCHEMA = 1

#: ``HardwareParams`` fields that are device constants (everything but
#: the provenance stamp). A profile must provide exactly these.
_DEVICE_FIELDS: Tuple[str, ...] = tuple(
    f.name for f in fields(HardwareParams) if f.name != "technology"
)

#: Device constants that are ``{resolution or size: value}`` tables.
_TABLE_FIELDS: Tuple[str, ...] = (
    "crossbar_power", "crossbar_area", "dac_power", "adc_power",
)

#: Device constants that count bits, bytes or ports: integers.
_INTEGER_FIELDS: Tuple[str, ...] = (
    "edram_size_bytes", "edram_bus_bits", "noc_flit_bits", "noc_ports",
    "act_precision", "weight_precision",
)

#: The Table I exploration domains a profile owns.
_DOMAIN_FIELDS: Tuple[str, ...] = (
    "xb_size_choices",
    "res_rram_choices",
    "res_dac_choices",
    "ratio_rram_choices",
    "adc_resolution_range",
)


def _is_number(value: object, integral: bool = False) -> bool:
    """Whether ``value`` is a finite number, or an integer when
    ``integral``; a bool is neither."""
    if isinstance(value, bool):
        return False
    if integral:
        return isinstance(value, int)
    return isinstance(value, (int, float)) and math.isfinite(value)


def _params_defaults() -> Dict[str, object]:
    """The Table III constants, read off the ``HardwareParams`` dataclass.

    Building the ``reram`` profile from the dataclass defaults (instead
    of repeating the literals) makes byte-identity with a
    default-constructed ``HardwareParams()`` definitional, not a
    maintenance promise.
    """
    out: Dict[str, object] = {}
    for f in fields(HardwareParams):
        if f.name == "technology":
            continue
        if f.default is not MISSING:
            out[f.name] = f.default
        else:
            out[f.name] = f.default_factory()  # type: ignore[misc]
    return out


@dataclass(frozen=True)
class TechnologyProfile:
    """One device technology: constants plus exploration domains.

    Device-table fields mirror :class:`HardwareParams` one to one (a
    unit test pins the mirror); the domain fields replace the former
    module-level ``XBSIZE_CHOICES``/``RESRRAM_CHOICES``/... constants
    of :mod:`repro.hardware.params`, which remain as the ``reram``
    profile's values for backward compatibility.
    """

    name: str
    description: str = ""
    cell: str = "reram"  # device family tag (reporting only)

    # -- device constants (mirror of HardwareParams) -------------------
    crossbar_power: Mapping[int, float] = field(default_factory=dict)
    crossbar_latency: float = 0.0
    crossbar_area: Mapping[int, float] = field(default_factory=dict)
    dac_power: Mapping[int, float] = field(default_factory=dict)
    dac_latency: float = 0.0
    dac_area: float = 0.0
    adc_power: Mapping[int, float] = field(default_factory=dict)
    adc_sample_rate: float = 0.0
    adc_area: float = 0.0
    edram_size_bytes: int = 0
    edram_bus_bits: int = 0
    edram_power: float = 0.0
    edram_frequency: float = 0.0
    edram_area: float = 0.0
    noc_flit_bits: int = 0
    noc_ports: int = 0
    noc_power: float = 0.0
    noc_frequency: float = 0.0
    noc_hop_latency: float = 0.0
    noc_area: float = 0.0
    alu_power: float = 0.0
    alu_frequency: float = 0.0
    alu_area: float = 0.0
    sample_hold_power: float = 0.0
    sample_hold_area: float = 0.0
    register_power_per_macro: float = 0.0
    register_area_per_macro: float = 0.0
    act_precision: int = 16
    weight_precision: int = 16

    # -- Table I exploration domains -----------------------------------
    xb_size_choices: Tuple[int, ...] = ()
    res_rram_choices: Tuple[int, ...] = ()
    res_dac_choices: Tuple[int, ...] = ()
    ratio_rram_choices: Tuple[float, ...] = ()
    adc_resolution_range: Tuple[int, int] = (0, 0)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ConfigurationError(
                "technology name must be a non-empty string, got "
                f"{self.name!r}"
            )
        # Check every field's type before any value check, so a
        # malformed document fails naming its field. Nothing is coerced
        # except the tables' string keys and their values to float.
        for name in ("description", "cell"):
            value = getattr(self, name)
            if not isinstance(value, str):
                raise self._error(f"{name} must be a string, got {value!r}")
        for name in _TABLE_FIELDS:
            object.__setattr__(self, name, self._table(name))
        for name in _DEVICE_FIELDS:
            if name in _TABLE_FIELDS:
                continue
            value = getattr(self, name)
            integral = name in _INTEGER_FIELDS
            if not _is_number(value, integral):
                kind = "an integer" if integral else "a finite number"
                raise self._error(f"{name} must be {kind}, got {value!r}")
        # Domains normalize to sorted tuples: downstream grid carving
        # (`SynthesisConfig.fast`'s "two smallest sizes" / "mid-grid
        # cell") relies on ascending order.
        for name in _DOMAIN_FIELDS:
            values = getattr(self, name)
            integral = name != "ratio_rram_choices"
            if not isinstance(values, (list, tuple)) or not all(
                _is_number(value, integral) for value in values
            ):
                kind = "integers" if integral else "finite numbers"
                raise self._error(
                    f"{name} must be a list of {kind}, got {values!r}"
                )
            object.__setattr__(
                self, name,
                tuple(values) if name == "adc_resolution_range"
                else tuple(sorted(values)),
            )
        if len(self.adc_resolution_range) != 2:
            raise self._error(
                "adc_resolution_range must be two integers [low, high], "
                f"got {list(self.adc_resolution_range)}"
            )
        self._validate()

    def _error(self, msg: str) -> ConfigurationError:
        return ConfigurationError(f"technology {self.name!r}: {msg}")

    def _table(self, name: str) -> Dict[int, float]:
        """Table ``name`` as ``{int: float}`` (JSON keys are strings)."""
        table = getattr(self, name)
        if not isinstance(table, Mapping):
            raise self._error(f"{name} must be a mapping, got {table!r}")
        out: Dict[int, float] = {}
        for key, value in table.items():
            try:
                int_key = int(key) if isinstance(key, str) else key
            except ValueError:
                int_key = None
            if not _is_number(int_key, integral=True):
                raise self._error(f"{name} key {key!r} is not an integer")
            if not _is_number(value):
                raise self._error(
                    f"{name}[{key}] must be a finite number, got {value!r}"
                )
            out[int_key] = float(value)
        return out

    def _validate(self) -> None:
        err = self._error
        # Domains: non-empty, positive, unique.
        for name in ("xb_size_choices", "res_rram_choices",
                     "res_dac_choices", "ratio_rram_choices"):
            domain = getattr(self, name)
            if not domain:
                raise err(f"{name} must be non-empty")
            if len(set(domain)) != len(domain):
                raise err(f"{name} has duplicate entries: {domain}")
            if any(v <= 0 for v in domain):
                raise err(f"{name} entries must be positive: {domain}")
        for ratio in self.ratio_rram_choices:
            if not 0.0 < ratio < 1.0:
                raise err(f"RatioRram {ratio} outside (0, 1)")
        low, high = self.adc_resolution_range
        if not 0 < low <= high:
            raise err(
                f"adc_resolution_range must be integers 0 < low <= "
                f"high, got {self.adc_resolution_range}"
            )
        # Scalar constants: strictly positive where a zero would divide
        # or dead-end the flow.
        for name in ("crossbar_latency", "adc_sample_rate",
                     "edram_frequency", "noc_frequency", "alu_frequency",
                     "edram_power", "noc_power", "alu_power",
                     "register_power_per_macro", "sample_hold_power"):
            if getattr(self, name) <= 0:
                raise err(f"{name} must be positive")
        if self.act_precision <= 0 or self.weight_precision <= 0:
            raise err("precisions must be positive")
        # Tables must cover their domains.
        for xb in self.xb_size_choices:
            if xb not in self.crossbar_power:
                raise err(f"crossbar_power has no entry for XbSize {xb}; "
                          f"known: {sorted(self.crossbar_power)}")
            if xb not in self.crossbar_area:
                raise err(f"crossbar_area has no entry for XbSize {xb}; "
                          f"known: {sorted(self.crossbar_area)}")
        for res in self.res_dac_choices:
            if res not in self.dac_power:
                raise err(f"dac_power has no entry for ResDAC {res}; "
                          f"known: {sorted(self.dac_power)}")
        for res in self.res_rram_choices:
            if res > self.weight_precision:
                raise err(f"ResRram {res} exceeds the weight precision "
                          f"{self.weight_precision}")
        missing = [r for r in range(low, high + 1)
                   if r not in self.adc_power]
        if missing:
            raise err(f"adc_power is missing resolutions {missing} "
                      f"inside the range {low}-{high}")
        # The flow derives the effective range from the table keys
        # (HardwareParams.adc_resolution_range), so keys outside the
        # declared range would silently widen it — reject them.
        stray = [r for r in self.adc_power if not low <= r <= high]
        if stray:
            raise err(
                f"adc_power has entries {sorted(stray)} outside the "
                f"declared adc_resolution_range {low}-{high}; trim "
                "the table or widen the range"
            )
        for table in _TABLE_FIELDS:
            for key, value in getattr(self, table).items():
                if value <= 0:
                    raise err(f"{table}[{key}] must be positive")
        # Power curves must be monotone non-decreasing in resolution /
        # size — a cheaper *higher*-resolution converter means the
        # table is mistyped, and the allocator's "provision the max
        # resolution" shortcut would silently under-price it.
        for table in ("adc_power", "dac_power", "crossbar_power"):
            curve = getattr(self, table)
            keys = sorted(curve)
            for a, b in zip(keys, keys[1:]):
                if curve[b] < curve[a]:
                    raise err(
                        f"{table} is non-monotone: {table}[{b}]="
                        f"{curve[b]!r} < {table}[{a}]={curve[a]!r}"
                    )

    # ------------------------------------------------------------------
    # HardwareParams handoff
    # ------------------------------------------------------------------
    def device_constants(self) -> Dict[str, object]:
        """The ``HardwareParams`` constructor kwargs (fresh copies)."""
        out: Dict[str, object] = {}
        for name in _DEVICE_FIELDS:
            value = getattr(self, name)
            out[name] = dict(value) if isinstance(value, Mapping) else value
        return out

    # ------------------------------------------------------------------
    # Wire format
    # ------------------------------------------------------------------
    def to_payload(self) -> Dict[str, object]:
        """JSON-ready document (``from_payload`` round-trips it)."""
        device: Dict[str, object] = {}
        for name in _DEVICE_FIELDS:
            value = getattr(self, name)
            device[name] = (
                {str(k): v for k, v in sorted(value.items())}
                if isinstance(value, Mapping) else value
            )
        return {
            "schema": _PAYLOAD_SCHEMA,
            "name": self.name,
            "description": self.description,
            "cell": self.cell,
            "device": device,
            "domains": {
                name: list(getattr(self, name)) for name in _DOMAIN_FIELDS
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), indent=2, sort_keys=True)

    @classmethod
    def from_payload(
        cls, payload: Mapping[str, object]
    ) -> "TechnologyProfile":
        """Parse (and fully validate) a profile document."""
        if not isinstance(payload, Mapping):
            raise ConfigurationError("technology document must be a "
                                     "JSON object")
        schema = payload.get("schema", _PAYLOAD_SCHEMA)
        if schema != _PAYLOAD_SCHEMA:
            raise ConfigurationError(
                f"unsupported technology schema {schema!r} "
                f"(supported: {_PAYLOAD_SCHEMA})"
            )
        known = {"schema", "name", "description", "cell", "device",
                 "domains"}
        unknown = set(payload) - known
        if unknown:
            raise ConfigurationError(
                f"unknown technology fields {sorted(unknown)}; "
                f"valid: {sorted(known)}"
            )
        if "name" not in payload:
            raise ConfigurationError("technology document is missing "
                                     "'name'")
        device = payload.get("device", {})
        domains = payload.get("domains", {})
        if not isinstance(device, Mapping) or not isinstance(
                domains, Mapping):
            raise ConfigurationError(
                "'device' and 'domains' must be JSON objects"
            )
        bad_device = set(device) - set(_DEVICE_FIELDS)
        if bad_device:
            raise ConfigurationError(
                f"unknown device constants {sorted(bad_device)}"
            )
        missing_device = set(_DEVICE_FIELDS) - set(device)
        if missing_device:
            raise ConfigurationError(
                f"technology {payload['name']!r} is missing device "
                f"constants {sorted(missing_device)}"
            )
        bad_domains = set(domains) - set(_DOMAIN_FIELDS)
        if bad_domains:
            raise ConfigurationError(
                f"unknown domains {sorted(bad_domains)}"
            )
        missing_domains = set(_DOMAIN_FIELDS) - set(domains)
        if missing_domains:
            raise ConfigurationError(
                f"technology {payload['name']!r} is missing domains "
                f"{sorted(missing_domains)}"
            )
        kwargs: Dict[str, object] = dict(device)
        kwargs.update(domains)
        return cls(
            name=payload["name"],
            description=payload.get("description", ""),
            cell=payload.get("cell", "unknown"),
            **kwargs,
        )


# ----------------------------------------------------------------------
# Built-in profiles
# ----------------------------------------------------------------------
def _reram_profile() -> TechnologyProfile:
    """Table III's ReRAM device — *the* byte-identity baseline."""
    return TechnologyProfile(
        name="reram",
        description="Table III ReRAM (ISAAC/MNSIM constants) — the "
                    "paper's device; the pre-profile default",
        cell="reram",
        xb_size_choices=(128, 256, 512),
        res_rram_choices=(1, 2, 4),
        res_dac_choices=(1, 2, 4),
        ratio_rram_choices=(0.1, 0.2, 0.3, 0.4),
        adc_resolution_range=(7, 14),
        **_params_defaults(),
    )


def _reram_lp_profile() -> TechnologyProfile:
    """A low-power ReRAM corner.

    The same cell scaled for an energy-first deployment: in-situ reads
    take 3x longer at 40% of the read power, the ADC bank trades its
    1.2 GS/s converters for 600 MS/s ones at ~45% of the power per
    resolution step, and the peripheral blocks (eDRAM, NoC, ALU) run a
    low-leakage corner at 60% power. Domains are unchanged — it is the
    same device family, just a different operating point.
    """
    base = _params_defaults()
    base["crossbar_power"] = {
        k: v * 0.4 for k, v in base["crossbar_power"].items()
    }
    base["crossbar_latency"] = 300e-9
    base["adc_power"] = {
        r: p * 0.45 for r, p in base["adc_power"].items()
    }
    base["adc_sample_rate"] = 0.6e9
    base["edram_power"] = base["edram_power"] * 0.6
    base["noc_power"] = base["noc_power"] * 0.6
    base["alu_power"] = base["alu_power"] * 0.6
    base["register_power_per_macro"] = (
        base["register_power_per_macro"] * 0.6
    )
    return TechnologyProfile(
        name="reram-lp",
        description="low-power ReRAM corner: 3x slower reads at 0.4x "
                    "read power, 600 MS/s ADCs at 0.45x power, "
                    "low-leakage periphery",
        cell="reram",
        xb_size_choices=(128, 256, 512),
        res_rram_choices=(1, 2, 4),
        res_dac_choices=(1, 2, 4),
        ratio_rram_choices=(0.1, 0.2, 0.3, 0.4),
        adc_resolution_range=(7, 14),
        **base,
    )


def _sram_pim_profile() -> TechnologyProfile:
    """An SRAM compute-in-memory cell.

    SRAM stores one bit per cell, full stop — there is no
    device-resolution knob, so ``res_rram_choices`` collapses to
    ``(1,)`` and every weight is bit-sliced across 16 columns. In
    exchange the array reads an order of magnitude faster (10 ns vs
    100 ns), at the cost of static leakage: 4x the read power and 4x
    the cell area of the ReRAM arrays. The lower per-column swing also
    relaxes the converter floor — the ADC range widens downward to
    5 bits (small layers get away with cheap converters) and tops out
    at 12.
    """
    base = _params_defaults()
    base["crossbar_power"] = {128: 1.2e-3, 256: 4.8e-3, 512: 19.2e-3}
    base["crossbar_latency"] = 10e-9
    base["crossbar_area"] = {128: 0.01, 256: 0.04, 512: 0.16}
    low, high = 5, 12
    bottom, top = 0.8e-3, 30e-3
    ratio = (top / bottom) ** (1.0 / (high - low))
    base["adc_power"] = {
        r: bottom * ratio ** (r - low) for r in range(low, high + 1)
    }
    base["edram_power"] = 25e-3  # leakier SRAM-node scratchpad
    base["register_power_per_macro"] = 2.0e-3
    return TechnologyProfile(
        name="sram-pim",
        description="SRAM compute-in-memory: 1-bit cells only, 10x "
                    "faster reads, 4x leakage power/area, 5-12 bit "
                    "ADC range",
        cell="sram",
        xb_size_choices=(128, 256, 512),
        res_rram_choices=(1,),
        res_dac_choices=(1, 2, 4),
        ratio_rram_choices=(0.1, 0.2, 0.3, 0.4),
        adc_resolution_range=(low, high),
        **base,
    )


_REGISTRY: Dict[str, TechnologyProfile] = {}

#: Built-in profile names, in presentation order.
BUILTIN_TECHNOLOGIES: Tuple[str, ...] = ("reram", "reram-lp", "sram-pim")


def _ensure_builtins() -> None:
    if DEFAULT_TECHNOLOGY not in _REGISTRY:
        for factory in (_reram_profile, _reram_lp_profile,
                        _sram_pim_profile):
            profile = factory()
            _REGISTRY[profile.name] = profile


# ----------------------------------------------------------------------
# Registry API
# ----------------------------------------------------------------------
def register_technology(
    profile: TechnologyProfile, replace: bool = False
) -> TechnologyProfile:
    """Add a (validated) profile to the registry.

    Re-registering an existing name requires ``replace=True``; the
    built-in profiles can never be replaced with different constants
    (golden fixtures, content keys and the ``repro tech`` docs are
    defined against them) — re-registering an *identical* built-in
    (e.g. loading an unedited ``repro tech export`` document) is a
    no-op success.
    """
    _ensure_builtins()
    if not isinstance(profile, TechnologyProfile):
        raise ConfigurationError(
            f"expected a TechnologyProfile, got "
            f"{type(profile).__name__}"
        )
    if (
        profile.name in BUILTIN_TECHNOLOGIES
        and profile != _REGISTRY.get(profile.name)
    ):
        raise ConfigurationError(
            f"the built-in {profile.name!r} profile cannot be "
            "replaced; register the modified device under a new name"
        )
    if profile.name in _REGISTRY and not replace:
        raise ConfigurationError(
            f"technology {profile.name!r} is already registered "
            "(pass replace=True to override)"
        )
    _REGISTRY[profile.name] = profile
    return profile


def unregister_technology(name: str) -> None:
    """Remove a user-registered profile (built-ins are permanent)."""
    _ensure_builtins()
    if name in BUILTIN_TECHNOLOGIES:
        raise ConfigurationError(
            f"built-in technology {name!r} cannot be unregistered"
        )
    _REGISTRY.pop(name, None)


def get_technology(
    name: Union[str, TechnologyProfile]
) -> TechnologyProfile:
    """Look up a profile by name (idempotent on profile objects)."""
    if isinstance(name, TechnologyProfile):
        return name
    _ensure_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown technology {name!r}; available: "
            f"{available_technologies()}"
        ) from None


def available_technologies() -> List[str]:
    """Registered profile names, built-ins first, extras sorted."""
    _ensure_builtins()
    extras = sorted(
        n for n in _REGISTRY if n not in BUILTIN_TECHNOLOGIES
    )
    return list(BUILTIN_TECHNOLOGIES) + extras


def load_technology(
    path: Union[str, Path], replace: bool = False
) -> TechnologyProfile:
    """Parse a profile JSON document and register it."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigurationError(
            f"cannot read technology document {path}: {exc.strerror}"
        ) from exc
    except UnicodeDecodeError as exc:
        raise ConfigurationError(
            f"cannot read technology document {path}: not UTF-8 text"
        ) from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: not valid JSON ({exc})") from exc
    return register_technology(
        TechnologyProfile.from_payload(payload), replace=replace
    )


def default_params() -> HardwareParams:
    """A fresh ``HardwareParams`` for the default technology.

    The routing point for code that used to default-construct
    ``HardwareParams()`` ad hoc — every such site now goes through the
    registry, so swapping :data:`DEFAULT_TECHNOLOGY` (or the profile a
    caller passes instead) retargets the whole flow.
    """
    return HardwareParams.from_technology(DEFAULT_TECHNOLOGY)
