"""Run configuration: YAML parsing, validation, and defaults.

The config surface is YAML with four blocks (``model``, ``grid``,
``tolerance``, ``output``) plus a ``command``/``preset`` selector.  Unknown
keys are rejected with the offending line number, as are the keys a command
would ignore: a ``model`` block for ``reproduce``, whose preset fixes the
model, and a ``preset`` for any other command.  ``skin-check`` takes only a
flavour-conserving model: it tests each Majorana species alone.  A key
whose value is ``null`` counts as not given.  Complex numbers are written
either as ``[re, im]`` pairs or as ``{mod: m, phase_over_pi: p}``; bare
reals are accepted too.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import asdict, dataclass, fields

import yaml

from .ep import MIN_SCAN_GRID_N
from .errors import ConfigurationError
from .models import VARIANT_FIELDS, Coupling3, ModelConfig, Variant, default_dmi_vectors, species
from .ribbon import ClassifierThresholds

#: variant names as written in a config, with or without the underscore
_VARIANT_ALIASES = {name: v for v in Variant for name in (v.value, v.value.replace("_", ""))}

COMMANDS = (
    "bloch-spectrum",
    "ep-find",
    "arc-trace",
    "skin-check",
    "ribbon-sweep",
    "localization",
    "reproduce",
)


class _Located:
    """A parsed YAML value plus its source line (1-based)."""

    __slots__ = ("value", "line")

    def __init__(self, value, line):
        self.value = value
        self.line = line


def _compose(text: str):
    """YAML -> plain values wrapped in _Located, preserving line numbers."""
    scalar = yaml.constructor.SafeConstructor().construct_object  # a quoted "1" stays a string

    def build(node):
        line = node.start_mark.line + 1
        if isinstance(node, yaml.MappingNode):
            out = {}
            for key_node, value_node in node.value:
                value = build(value_node)
                if value.value is not None:  # a null entry means "not given"
                    out[str(key_node.value)] = value
            return _Located(out, line)
        if isinstance(node, yaml.SequenceNode):
            return _Located([build(child) for child in node.value], line)
        return _Located(scalar(node), line)

    try:
        root = yaml.compose(text)
        return _Located({}, 1) if root is None else build(root)
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"config is not valid YAML: {exc}") from exc


def _err(msg, located=None):
    where = f" (line {located.line})" if isinstance(located, _Located) else ""
    raise ConfigurationError(msg + where)


def _as_real(located, name):
    v = located.value
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        _err(f"{name}: expected a real number, got {v!r}", located)
    return float(v)


def _as_int(located, name):
    v = located.value
    if isinstance(v, bool) or not isinstance(v, int):
        _err(f"{name}: expected an integer, got {v!r}", located)
    return int(v)


def _at_least(low):
    """Integer parser that rejects values below ``low``."""

    def cast(located, name):
        v = _as_int(located, name)
        if v < low:
            _err(f"{name} must be >= {low}, got {v}", located)
        return v

    return cast


def _edge_band(located, name):
    """Real parser of ``outer_frac``: each edge's band in (0, 0.5], so the two bands are nonempty and apart."""
    v = _as_real(located, name)
    if not 0.0 < v <= 0.5:
        _err(f"{name} must be in (0, 0.5], got {v}", located)
    return v


def _as_str(located, name):
    v = located.value
    if not isinstance(v, str):
        _err(f"{name}: expected a string, got {v!r}", located)
    return v


def _as_complex(located, name):
    """Accept bare real, [re, im], or {mod: m, phase_over_pi: p}."""
    v = located.value
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return complex(v)
    if isinstance(v, list):
        if len(v) != 2:
            _err(f"{name}: complex as [re, im] needs exactly two entries", located)
        return complex(_as_real(v[0], name + "[0]"), _as_real(v[1], name + "[1]"))
    if isinstance(v, dict):
        keys = set(v)
        if keys != {"mod", "phase_over_pi"}:
            _err(f"{name}: complex mapping needs keys mod and phase_over_pi", located)
        mod = _as_real(v["mod"], name + ".mod")
        ph = _as_real(v["phase_over_pi"], name + ".phase_over_pi")
        return mod * cmath.exp(1j * math.pi * ph)
    _err(f"{name}: cannot interpret {v!r} as a complex number", located)


def _check_keys(located, allowed, context):
    for key in located.value:
        if key not in allowed:
            _err(f"unknown key {context}{key!r}", located.value[key])


@dataclass
class GridConfig:
    bz_n: int = 128
    w: int = 52
    kx_n: int = 402
    n_transverse: int = 512
    arc_grid_n: int = 256
    kx: float = 2.0 * math.pi / 3.0  # snapshot momentum for localization profiles
    n_states: int = 0  # 0 = all states


#: smallest valid value of the grid keys that have one
_GRID_MIN = {"bz_n": 1, "w": 2, "kx_n": 1, "n_transverse": 1, "arc_grid_n": 2, "n_states": 0}


@dataclass
class ToleranceConfig:
    gap_tol: float | None = None
    overlap_tol: float = 1e-4
    edge_mass: float = ClassifierThresholds.edge_mass
    outer_frac: float = ClassifierThresholds.outer_frac
    ipr_factor: float = ClassifierThresholds.ipr_factor
    cloud_tol: float = ClassifierThresholds.cloud_tol
    nhse_fraction: float = 0.05

    def classifier(self) -> ClassifierThresholds:
        return ClassifierThresholds(
            edge_mass=self.edge_mass,
            outer_frac=self.outer_frac,
            ipr_factor=self.ipr_factor,
            cloud_tol=self.cloud_tol,
        )


@dataclass
class OutputConfig:
    directory: str = "out"
    formats: tuple = ("csv", "json")
    svg: bool = True
    prefix: str = "run"
    weight_scale: str = "linear"  # or "log01" for profile exports


@dataclass
class RunConfig:
    command: str
    model: ModelConfig | None
    grid: GridConfig
    tolerance: ToleranceConfig
    output: OutputConfig
    preset: str | None = None
    threads: int = 1

    @property
    def resolved(self) -> dict:
        """Echo of the full configuration with every default filled in.

        Written as YAML, it parses back into this configuration.
        """
        return {
            "command": self.command,
            "preset": self.preset,
            "model": model_dict(self.model) if self.model is not None else None,
            "grid": asdict(self.grid),
            "tolerance": asdict(self.tolerance),
            "output": asdict(self.output),
            "threads": self.threads,
        }


def _vector(n, item, what):
    """Parser of a list of ``n`` entries, each read by ``item``; ``what`` ends the error."""

    def cast(located, name):
        if not isinstance(located.value, list) or len(located.value) != n:
            _err(f"{name} {what}", located)
        return tuple(item(c, f"{name}[{i}]") for i, c in enumerate(located.value))

    return cast


def _choice(*options):
    """String parser that accepts only ``options``."""

    def cast(located, name):
        v = _as_str(located, name)
        if v not in options:
            _err(f"{name} must be " + " or ".join(map(repr, options)), located)
        return v

    return cast


def _coupling3(located, name):
    return Coupling3(*_vector(3, _as_complex, "must be a list of three complex numbers")(located, name))


def _dmi_z_mode(located, name):
    return default_dmi_vectors(include_z=_choice("c3", "none")(located, name) == "c3")


#: model key -> (the ModelConfig field it sets, its parser); in this order,
#: so ``dmi_vectors`` wins over ``dmi_z_mode``
_MODEL_KEYS = {
    "j": ("j", _coupling3),
    "k_coupling": ("k_coupling", _as_complex),
    "gamma": ("gamma", _as_complex),
    "d": ("d", _as_real),
    "b_field": ("b_field", _vector(3, _as_real, "must be a real 3-vector")),
    "dmi_z_mode": ("dmi_vectors", _dmi_z_mode),
    "dmi_vectors": (
        "dmi_vectors",
        _vector(3, _vector(2, _as_real, "must be a 2-vector"), "must hold three 2-vectors"),
    ),
    "energy_scale": ("energy_scale", _choice("raw", "half")),
}


def parse_model_block(located) -> ModelConfig:
    if not isinstance(located.value, dict):
        _err("model block must be a mapping", located)
    block = located.value
    _check_keys(located, {"variant", *_MODEL_KEYS}, "model.")

    if "variant" not in block:
        _err("model.variant is required", located)
    vname = _as_str(block["variant"], "model.variant").lower()
    if vname not in _VARIANT_ALIASES:
        _err(f"model.variant: unknown variant {vname!r}", block["variant"])
    variant = _VARIANT_ALIASES[vname]

    valid = ("j", "energy_scale", *VARIANT_FIELDS[variant])
    for key in block:
        if key != "variant" and _MODEL_KEYS[key][0] not in valid:
            _err(f"field {key!r} not valid for variant {variant.value!r}", block[key])
    if "j" not in block:
        _err("model.j is required", located)

    kwargs = {f: cast(block[key], f"model.{key}") for key, (f, cast) in _MODEL_KEYS.items() if key in block}
    try:
        return ModelConfig(variant=variant, **kwargs)
    except ConfigurationError as exc:
        _err(f"invalid model block: {exc}", located)


def _fill_dataclass(obj, located, context, casts):
    """``obj`` with the keys of the block ``located`` set on it."""
    if located is None:
        return obj
    if not isinstance(located.value, dict):
        _err(f"{context} block must be a mapping", located)
    _check_keys(located, set(casts), f"{context}.")
    for key, loc in located.value.items():
        setattr(obj, key, casts[key](loc, f"{context}.{key}"))
    return obj


def _numeric_casts(cls):
    """Parsers for a block of numbers: integer where the default is an integer."""
    return {f.name: _as_int if type(f.default) is int else _as_real for f in fields(cls)}


def parse_config(text: str, preset: str | None = None) -> RunConfig:
    """Parse and validate a run configuration; raises ConfigurationError.

    ``preset``, if given, overrides the ``preset`` key of the text (the CLI's
    ``--preset``); a ``reproduce`` run needs one from either place, and its
    preset's strip width fills ``grid.w`` unless the config gives one.
    """
    root = _compose(text)
    if not isinstance(root.value, dict):
        _err("top level must be a mapping", root)
    allowed = {"command", "preset", "model", "grid", "tolerance", "output", "threads"}
    _check_keys(root, allowed, "")
    block = root.value

    if "command" not in block:
        _err("key 'command' is required", root)
    command = _as_str(block["command"], "command")
    if command not in COMMANDS:
        _err(f"unknown command {command!r}; expected one of {COMMANDS}", block["command"])

    # a key the command would ignore is an error, not an echo in the metadata
    if command == "reproduce" and "model" in block:
        _err("command 'reproduce' takes its model from the preset, not a model block", block["model"])
    if command != "reproduce" and "preset" in block:
        _err(f"command {command!r} takes no preset (only 'reproduce' does)", block["preset"])
    if command != "reproduce" and preset is not None:
        raise ConfigurationError(f"--preset applies to 'reproduce' only, not {command!r}")

    if "preset" in block:
        file_preset = _as_str(block["preset"], "preset")
        if preset is None:
            preset = file_preset

    model = None
    grid = GridConfig()
    if "model" in block:
        model = parse_model_block(block["model"])
        if command == "skin-check" and species(model) is None:
            _err(f"command 'skin-check' tests each Majorana species alone; {model.variant.value!r} mixes them",
                 block["model"].value["variant"])
    elif command != "reproduce":
        _err(f"command {command!r} needs a model block", root)
    elif preset is None:
        _err("command 'reproduce' needs a preset (a 'preset' key or --preset)", root)
    else:
        from .presets import get_preset  # presets imports this module

        grid.w = get_preset(preset).w

    grid_casts = _numeric_casts(GridConfig) | {k: _at_least(v) for k, v in _GRID_MIN.items()}
    grid = _fill_dataclass(grid, block.get("grid"), "grid", grid_casts)
    if command == "ep-find" and grid.bz_n < MIN_SCAN_GRID_N:
        msg = f"grid.bz_n must be >= {MIN_SCAN_GRID_N} for ep-find, got {grid.bz_n}"
        _err(msg, block["grid"].value["bz_n"])
    tol_casts = _numeric_casts(ToleranceConfig) | {"outer_frac": _edge_band}
    tol = _fill_dataclass(ToleranceConfig(), block.get("tolerance"), "tolerance", tol_casts)
    out = _fill_dataclass(
        OutputConfig(),
        block.get("output"),
        "output",
        {
            "directory": _as_str,
            "formats": lambda loc, name: _parse_formats(loc, name),
            "svg": lambda loc, name: _as_bool(loc, name),
            "prefix": _as_str,
            "weight_scale": _choice("linear", "log01"),
        },
    )

    threads = _at_least(1)(block["threads"], "threads") if "threads" in block else 1

    return RunConfig(
        command=command,
        model=model,
        grid=grid,
        tolerance=tol,
        output=out,
        preset=preset,
        threads=threads,
    )


def _as_bool(located, name):
    v = located.value
    if not isinstance(v, bool):
        _err(f"{name}: expected true/false", located)
    return v


def _parse_formats(located, name):
    v = located.value
    if not isinstance(v, list):
        _err(f"{name}: expected a list of formats", located)
    formats = tuple(_as_str(x, name) for x in v)
    for i, fmt in enumerate(formats):
        if fmt not in ("csv", "json", "ndjson"):
            _err(f"{name}: unknown format {fmt!r}", located)
        if fmt in formats[:i]:
            _err(f"{name}: format {fmt!r} listed twice", located)
    return formats


def _plain(value):
    """A field value as YAML/JSON data: a complex as [re, im], a tuple as a list."""
    if isinstance(value, complex):
        return [value.real, value.imag]
    return [_plain(v) for v in value] if isinstance(value, tuple) else value


def model_dict(model: ModelConfig) -> dict:
    """Fully resolved model block (defaults included) for run metadata."""
    out = {"variant": model.variant.value, "j": _plain(tuple(model.j)), "energy_scale": model.energy_scale}
    for name in VARIANT_FIELDS[model.variant]:
        value = model.resolved_dmi_vectors() if name == "dmi_vectors" else getattr(model, name)
        out[name] = _plain(value)
    return out
