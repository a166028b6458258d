"""Scenario and filter configurations: strict, versioned, JSON-backed.

A configuration document fully determines a run; unknown keys are errors
so that a typo in a physics parameter cannot silently fall back to a
default. Complex numbers are written as two-element [re, im] arrays.

Each config class declares every field together with its parser
(``_field``). ``__post_init__`` runs the parsers, so a config built in
Python and one read from JSON pass the same checks, and every bad value
ends as a ConfigError.

ScenarioConfig and FilterConfig share ``_Document.to_dict``, the versioned
JSON form. Each keeps its own ``from_dict`` and ``build_potential``, which
bench/tracing.py wraps and then restores from that class's own ``__dict__``.
"""

import json
import math
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace

from .dynamics import valid_width
from .errors import ConfigError
from .grid import GridSpec, schedule, step_count
from .potentials import (
    DEFAULT_CONSTANTS,
    FreeSpace,
    PhysicalConstants,
    Potential,
    PtTanhGaussian,
    QuadraticLinear,
    hermitian_variant,
)

__all__ = [
    "SCHEMA_VERSION",
    "InitialBeam",
    "GaussianSettings",
    "GridSettings",
    "ScenarioConfig",
    "FilterConfig",
    "load_scenario",
    "load_filter",
]

SCHEMA_VERSION = 1

# the config section whose dz steps each propagator; the oracle samples at RK4's steps
STEP_SECTION = {"gaussian": "gaussian", "grid": "grid", "oracle": "gaussian"}
PROPAGATORS = tuple(STEP_SECTION)

_POTENTIALS = {
    "pt_tanh_gaussian": (PtTanhGaussian, ("gamma", "omega", "eta")),
    "quadratic_linear": (QuadraticLinear, ("omega", "gamma")),
    "free_space": (FreeSpace, ()),
}


@contextmanager
def _config_errors(prefix: str = ""):
    # the constructors of GridSpec, PhysicalConstants and the potentials
    # raise ValueError; a config reports it as a ConfigError on its field
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


def _check_keys(d, allowed, required, where: str):
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be an object, got {type(d).__name__}")
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    missing = set(required) - set(d)
    if missing:
        raise ConfigError(f"missing keys in {where}: {sorted(missing)}")


def _keys(cls):
    """Field names of a config class, and those without a default."""
    names = [f.name for f in fields(cls)]
    return names, [
        f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING
    ]


# Parsers: (value, field name) -> normalized value, or ConfigError.


def _number(v, name: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{name} must be a number, got {v!r}")
    try:
        x = float(v)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(f"{name} must be finite, got {x}")
    return x


def _positive(v, name: str) -> float:
    x = _number(v, name)
    if not x > 0:
        raise ConfigError(f"{name} must be positive, got {x}")
    return x


def _count(v, name: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int) or v < 1:
        raise ConfigError(f"{name} must be an integer >= 1, got {v!r}")
    return v


def _boolean(v, name: str) -> bool:
    if not isinstance(v, bool):
        raise ConfigError(f"{name} must be true or false, got {v!r}")
    return v


def _file_name(v, name: str) -> str:
    # runs are written to runs/<name>, which must not leave runs/
    if not isinstance(v, str) or v in ("", ".", "..") or any(c in v for c in "/\\\0"):
        raise ConfigError(f"{name} must be a plain file name, got {v!r}")
    return v


def _width(v, name: str) -> complex:
    if isinstance(v, (list, tuple)) and len(v) == 2:
        v = complex(_number(v[0], f"{name}[0]"), _number(v[1], f"{name}[1]"))
    if not isinstance(v, complex) or not valid_width(v):
        raise ConfigError(
            f"{name} must be an [re, im] with Im {name} > 0 and |{name}|^2 and "
            f"1 / Im {name} finite, got {v!r}"
        )
    return complex(v)


def _propagator(v, name: str) -> str:
    if not isinstance(v, str) or v not in PROPAGATORS:
        raise ConfigError(f"unknown propagator {v!r} in {name}; expected one of {PROPAGATORS}")
    return v


def _optional(parse):
    return lambda v, name: None if v is None else parse(v, name)


def _array(item):
    def parse(v, name: str) -> tuple:
        if not isinstance(v, (list, tuple)) or not v:
            raise ConfigError(f"{name} must be a non-empty array, got {v!r}")
        return tuple(item(x, f"{name}[{i}]") for i, x in enumerate(v))

    return parse


def _record(cls, item=None):
    """An instance of ``cls``, or an object of its fields.

    ``item`` parses each field of a class that does not parse its own.
    """

    def parse(v, name: str):
        if isinstance(v, cls):
            return v
        _check_keys(v, *_keys(cls), name)
        with _config_errors(f"{name}."):
            return cls(**(v if item is None else {k: item(x, k) for k, x in v.items()}))

    return parse


def _potential(v, name: str) -> dict:
    kind = v.get("kind") if isinstance(v, dict) else None
    if not isinstance(kind, str) or kind not in _POTENTIALS:
        raise ConfigError(
            f"{name} must be an object whose 'kind' is one of {sorted(_POTENTIALS)}, got {v!r}"
        )
    params = _POTENTIALS[kind][1]
    _check_keys(v, ("kind", "hermitian", *params), params, name)
    spec = {"kind": kind, **{k: _number(v[k], f"{name}.{k}") for k in params}}
    spec["hermitian"] = _boolean(v.get("hermitian", False), f"{name}.hermitian")
    with _config_errors(f"{name}."):
        build_potential(spec)
    return spec


def build_potential(spec: dict) -> Potential:
    cls, params = _POTENTIALS[spec["kind"]]
    base = cls(**{k: spec[k] for k in params})
    return hermitian_variant(base) if spec["hermitian"] else base


def _default_half_width(potential: dict) -> float:
    if potential["kind"] == "pt_tanh_gaussian":
        return 8.0 * potential["eta"]
    return 20.0


def _unit_n_zero(constants: PhysicalConstants, what: str):
    # only the grid reads n_zero
    if constants.n_zero != 1.0:
        raise ConfigError(f"constants.n_zero must be 1 for {what}, got {constants.n_zero}")


def _field(parse, default=MISSING, default_factory=MISSING):
    """A config field and the parser that validates and normalizes it."""
    return field(default=default, default_factory=default_factory, metadata={"parse": parse})


def _plain(value):
    """JSON form of a parsed config value."""
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return dict(value)
    return value


def _document(d, cls, where: str) -> dict:
    """Fields of a top-level config document, after the key and version checks."""
    allowed, required = _keys(cls)
    _check_keys(d, ("schema_version", *allowed), ("schema_version", *required), where)
    if _count(d["schema_version"], "schema_version") != SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported schema_version {d['schema_version']!r}; expected {SCHEMA_VERSION}"
        )
    return {k: v for k, v in d.items() if k != "schema_version"}


class _Record:
    """Base of the config classes: parse every field, then check across fields."""

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, f.metadata["parse"](getattr(self, f.name), f.name))
        with _config_errors():
            self._complete()

    def _complete(self):
        """Checks across fields and defaults derived from other fields."""


class _Document(_Record):
    """Base of the top-level config documents: the JSON form carries the schema version."""

    def to_dict(self) -> dict:
        return {"schema_version": SCHEMA_VERSION, **_plain(self)}


@dataclass(frozen=True)
class InitialBeam(_Record):
    q0: float = _field(_number)
    p0: float = _field(_number)
    b0: complex = _field(_width)
    norm0: float = _field(_positive, 1.0)
    alpha0: float = _field(_number, 0.0)


@dataclass(frozen=True)
class GaussianSettings(_Record):
    dz: float = _field(_positive, 1e-3)


@dataclass(frozen=True)
class GridSettings(_Record):
    # None: derived from the scenario's potential (see ScenarioConfig)
    half_width: float | None = _field(_optional(_positive), None)
    n_points: int = _field(_count, 4096)
    dz: float = _field(_positive, 1e-3)

    def _complete(self):
        if self.half_width is not None:
            GridSpec(self.half_width, self.n_points)


@dataclass(frozen=True)
class ScenarioConfig(_Document):
    name: str = _field(_file_name)
    potential: dict = _field(_potential)
    initial: InitialBeam = _field(_record(InitialBeam))
    propagators: tuple = _field(_array(_propagator), ("gaussian", "grid"))
    z_max: float = _field(_positive, 30.0)
    gaussian: GaussianSettings = _field(_record(GaussianSettings), GaussianSettings())
    grid: GridSettings = _field(_record(GridSettings), GridSettings())
    constants: PhysicalConstants = _field(_record(PhysicalConstants, _number), DEFAULT_CONSTANTS)
    sample_stride: int = _field(_count, 100)
    heatmap: bool = _field(_boolean, False)

    def _complete(self):
        if len(set(self.propagators)) != len(self.propagators):
            raise ConfigError(f"propagators must not repeat, got {list(self.propagators)}")
        if "oracle" in self.propagators and self.potential["kind"] != "quadratic_linear":
            raise ConfigError("the oracle propagator requires a quadratic_linear potential")
        if {"gaussian", "oracle"} & set(self.propagators):
            _unit_n_zero(self.constants, "the gaussian and oracle propagators")
        # each selected section once, gaussian before grid
        for section in dict.fromkeys(STEP_SECTION[p] for p in PROPAGATORS if p in self.propagators):
            with _config_errors(f"{section}."):
                step_count(self.z_max, getattr(self, section).dz)
        if self.grid.half_width is None:
            grid = replace(self.grid, half_width=_default_half_width(self.potential))
            object.__setattr__(self, "grid", grid)

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioConfig":
        return cls(**_document(d, cls, "scenario"))

    def build_potential(self) -> Potential:
        return build_potential(self.potential)

    def grid_spec(self) -> GridSpec:
        return GridSpec(self.grid.half_width, self.grid.n_points)

    def schedule(self, name: str):
        """(n, z_max / n, sample_steps) of propagator ``name``; see gainbeam.grid.schedule."""
        return schedule(self.z_max, getattr(self, STEP_SECTION[name]).dz, self.sample_stride)

    def with_overrides(
        self, z_max=None, dz=None, grid_points=None, heatmap=None
    ) -> "ScenarioConfig":
        cfg = self
        if z_max is not None:
            cfg = replace(cfg, z_max=z_max)
        if dz is not None:
            cfg = replace(
                cfg,
                gaussian=GaussianSettings(dz=dz),
                grid=replace(cfg.grid, dz=dz),
            )
        if grid_points is not None:
            cfg = replace(cfg, grid=replace(cfg.grid, n_points=grid_points))
        if heatmap is not None:
            cfg = replace(cfg, heatmap=heatmap)
        return cfg


@dataclass(frozen=True)
class FilterConfig(_Document):
    """Configuration of a width-filtering experiment."""

    name: str = _field(_file_name)
    widths: tuple = _field(_array(_width))
    q0: float = _field(_number, 0.0)
    p0: float = _field(_number, 0.0)
    potential: dict = _field(
        _potential,
        default_factory=lambda: {"kind": "quadratic_linear", "omega": 1.0, "gamma": 1.0},
    )
    z_max: float = _field(_positive, 1.0)
    dz: float = _field(_positive, 1e-4)
    probe_z: tuple = _field(_array(_positive), (1e-3, 1e-2))
    constants: PhysicalConstants = _field(_record(PhysicalConstants, _number), DEFAULT_CONSTANTS)

    def _complete(self):
        if len(self.widths) < 2:
            raise ConfigError("filter experiment needs at least two widths")
        if any(p > self.z_max for p in self.probe_z):
            raise ConfigError("probe_z values must lie in (0, z_max]")
        _unit_n_zero(self.constants, "a filter experiment")
        dz_eff = self.z_max / step_count(self.z_max, self.dz)
        for probe in self.probe_z:
            # a probe within 1e-9 of z = 0 would measure its rate as 0 / 0
            step = round(probe / dz_eff)
            if step < 1 or abs(step * dz_eff - probe) > 1e-9:
                raise ConfigError(f"probe_z {probe} does not land on a step (dz={dz_eff})")

    @classmethod
    def from_dict(cls, d: dict) -> "FilterConfig":
        return cls(**_document(d, cls, "filter"))

    def build_potential(self) -> Potential:
        return build_potential(self.potential)


def _load_json(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except ValueError as exc:
        # JSONDecodeError, UnicodeDecodeError and over-long integer literals
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc


def load_scenario(path) -> ScenarioConfig:
    return ScenarioConfig.from_dict(_load_json(path))


def load_filter(path) -> FilterConfig:
    return FilterConfig.from_dict(_load_json(path))
