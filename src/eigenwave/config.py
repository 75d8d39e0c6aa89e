"""Run configuration: JSON schema, defaults, presets and the study builder.

A run config is a JSON document with sections model / analysis / mc / io.
Validation is strict: unknown keys anywhere are rejected, so typos fail
loudly instead of silently falling back to defaults.
"""
from __future__ import annotations

import copy
import math
import operator
import sys

import numpy as np

from .estimators import COUNT_WEIGHTED, check_octave_range
from .montecarlo import McConfig
from .simulate import MixingSpec, NoiseSpec, OfBmSpec
from .wavelets import make_filter_bank


class ConfigError(ValueError):
    """Invalid run configuration; path points at the offending field."""

    def __init__(self, message: str, path: str = ""):
        super().__init__(message)
        self.path = path


_MATRIX = {
    "type": "array", "minItems": 1,
    "items": {"type": "array", "minItems": 1, "items": {"type": "number"}},
}

_HURST = {
    "type": "array", "minItems": 1,
    "items": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
}

_POINT_COV = {
    "oneOf": [
        _MATRIX,
        {
            "type": "object", "additionalProperties": False,
            "required": ["toeplitz"],
            "properties": {"toeplitz": {"type": "array", "minItems": 1,
                                        "items": {"type": "number"}}},
        },
    ]
}

_MIXING = {
    "type": "object", "additionalProperties": False,
    "required": ["kind"],
    "default": {"kind": "canonical"},
    "properties": {
        "kind": {"enum": ["canonical", "random_unit_columns", "explicit"]},
        "matrix": _MATRIX,
    },
}

_NOISE = {
    "type": "object", "additionalProperties": False,
    "required": ["kind"],
    "default": {"kind": "iid_gaussian", "variance": 1.0},
    "properties": {
        "kind": {"enum": ["iid_gaussian", "arma", "none"]},
        "variance": {"type": "number", "exclusiveMinimum": 0},
        "ar": {"type": "array", "items": {"type": "number"}},
        "ma": {"type": "array", "items": {"type": "number"}},
    },
}

SCHEMA = {
    "type": "object", "additionalProperties": False,
    "required": ["analysis"],
    "properties": {
        "model": {
            "type": "object", "additionalProperties": False,
            "required": ["r", "hurst", "n"],
            "properties": {
                "r": {"type": "integer", "minimum": 1},
                "hurst": _HURST,
                "point_cov": _POINT_COV,
                "mixing": _MIXING,
                "noise": _NOISE,
                "n": {"type": "integer", "minimum": 4, "maximum": 2 ** 32},
                "p": {"type": "integer", "minimum": 1},
            },
        },
        "analysis": {
            "type": "object", "additionalProperties": False,
            "required": ["j1", "j2"],
            "properties": {
                "family": {"enum": ["haar", "daubechies"], "default": "daubechies"},
                "n_vanishing": {"type": "integer", "minimum": 1, "maximum": 10,
                                "default": 2},
                "j1": {"type": "integer", "minimum": 1},
                "j2": {"type": "integer", "minimum": 1},
                "weights": {"enum": ["uniform", "count"], "default": COUNT_WEIGHTED},
                "eigen_floor": {"type": "number", "exclusiveMinimum": 0, "default": 1e-10},
                "kappa": {"type": "number", "exclusiveMinimum": 0, "default": 0.3},
                "kappa_grid": {"type": "array", "minItems": 1,
                               "items": {"type": "number", "exclusiveMinimum": 0},
                               "default": [round(0.025 * k, 6) for k in range(1, 40)]},
                "r": {"type": ["integer", "null"], "minimum": 0, "default": None},
            },
        },
        "mc": {
            "type": "object", "additionalProperties": False, "default": {},
            "properties": {
                "replications": {"type": "integer", "minimum": 1, "default": 100},
                "master_seed": {"type": "integer", "minimum": 0, "default": 0},
                "ratio": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "io": {
            "type": "object", "additionalProperties": False, "default": {},
            "properties": {
                "out_dir": {"type": "string", "minLength": 1, "default": "out"},
                "formats": {"type": "array", "minItems": 1,
                            "items": {"enum": ["csv", "binary"]}, "default": ["csv"]},
                "components": {"type": "boolean", "default": False},
                "ks_subsets": {"type": "boolean", "default": False},
            },
        },
    },
}


# Draft 2020-12 types, except that an integer is never written as a float
# (1024.0) and a number is a finite float64: no NaN, infinity or 10**400.
_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "boolean": lambda x: isinstance(x, bool),
    "null": lambda x: x is None,
    "integer": lambda x: type(x) is int,
    "number": lambda x: type(x) in (int, float) and abs(x) <= sys.float_info.max,
}

_BOUNDS = {
    "minimum": (operator.lt, "is less than the minimum of"),
    "maximum": (operator.gt, "is greater than the maximum of"),
    "exclusiveMinimum": (operator.le, "is less than or equal to the minimum of"),
    "exclusiveMaximum": (operator.ge, "is greater than or equal to the maximum of"),
}


def _errors(value, rule: dict, path: tuple = ()):
    """Every (path, message) by which value breaks rule, worded as jsonschema
    4.26 words them: the rule's keywords in dict order, each check skipped
    when value is not of the type it applies to. The bounds apply to any int
    or float, as jsonschema's own number type has it, so an integer beyond
    the float range still meets its maximum. Raises ValueError on a
    keyword the walker does not implement, so none is silently ignored."""
    for key, arg in rule.items():
        if key == "type":
            names = arg if isinstance(arg, list) else [arg]
            if not any(_TYPES[name](value) for name in names):
                yield path, f"{value!r} is not of type {', '.join(map(repr, names))}"
        elif key == "enum":  # string members only, where `in` is JSON equality
            if value not in arg:
                yield path, f"{value!r} is not one of {arg!r}"
        elif key in _BOUNDS:
            breaks, words = _BOUNDS[key]
            if type(value) in (int, float) and breaks(value, arg):
                yield path, f"{value!r} {words} {arg!r}"
        elif key in ("minItems", "minLength"):
            if isinstance(value, list if key == "minItems" else str) and len(value) < arg:
                yield path, f"{value!r} {'should be non-empty' if arg == 1 else 'is too short'}"
        elif key == "items":
            for index, item in enumerate(value if isinstance(value, list) else ()):
                yield from _errors(item, arg, path + (index,))
        elif key == "required":
            for name in arg if isinstance(value, dict) else ():
                if name not in value:
                    yield path, f"{name!r} is a required property"
        elif key == "additionalProperties" and arg is False:
            known = rule.get("properties", {})
            extras = [k for k in value if k not in known] if isinstance(value, dict) else []
            if extras:
                names = ", ".join(map(repr, sorted(extras, key=str)))
                verb = "was" if len(extras) == 1 else "were"
                yield path, f"Additional properties are not allowed ({names} {verb} unexpected)"
        elif key == "properties":
            for name, sub in arg.items() if isinstance(value, dict) else ():
                if name in value:
                    yield from _errors(value[name], sub, path + (name,))
        elif key == "oneOf":  # branches of distinct types: at most one holds
            if all(list(_errors(value, sub)) for sub in arg):
                yield path, f"{value!r} is not valid under any of the given schemas"
        elif key != "default":  # an annotation only
            raise ValueError(f"config schema: unsupported keyword {key}: {arg!r}")


def resolve_config(doc: dict) -> dict:
    """Validate and fill the schema's defaults; returns the effective
    configuration, which always has mc and io sections.

    Defaults fill the sections that are present, one level deep; an absent
    model section stays absent. Model rules are left to build_mc_config, so
    `estimate --data` needs only an analysis section. An absent Haar
    n_vanishing resolves to 1; make_filter_bank checks the filter.
    """
    # the first error in path order; min keeps the earliest of equal paths
    error = min(_errors(doc, SCHEMA), key=lambda error: error[0], default=None)
    if error is not None:
        path = ".".join(str(part) for part in error[0]) or "<root>"
        raise ConfigError(f"{path}: {error[1]}", path=path)
    effective = copy.deepcopy(doc)
    analysis = effective["analysis"]
    if analysis.get("family") == "haar":
        analysis.setdefault("n_vanishing", 1)
    for name, section in SCHEMA["properties"].items():
        if "default" in section:
            effective.setdefault(name, copy.deepcopy(section["default"]))
        if name in effective:
            for key, rule in section["properties"].items():
                if "default" in rule:
                    effective[name].setdefault(key, copy.deepcopy(rule["default"]))
    _typed("analysis.n_vanishing", make_filter_bank, analysis["family"],
           analysis["n_vanishing"])
    if analysis["j1"] >= analysis["j2"]:
        raise ConfigError(
            f"analysis.j1: octave range ({analysis['j1']}, {analysis['j2']}) needs two "
            f"octaves, j1 < j2",
            path="analysis.j1",
        )
    return effective


def point_covariance(model: dict) -> np.ndarray:
    """Materialize the point covariance (defaults to the identity)."""
    spec = model.get("point_cov")
    r = model["r"]
    if spec is None:
        return np.eye(r)
    if isinstance(spec, dict):
        row = np.asarray(spec["toeplitz"], dtype=np.float64)
        if row.size != r:
            raise ConfigError(
                f"model.point_cov.toeplitz: first row has {row.size} entries, expected {r}",
                path="model.point_cov.toeplitz",
            )
        idx = np.abs(np.subtract.outer(np.arange(r), np.arange(r)))
        return row[idx]
    if len(spec) != r or any(len(row) != r for row in spec):
        raise ConfigError(f"model.point_cov: expected an {r} x {r} matrix for r={r}",
                          path="model.point_cov")
    return np.asarray(spec, dtype=np.float64)


def _typed(path: str, spec_type, *args, **kwargs):
    """Build a typed spec; the ValueError of a rule it enforces becomes a
    ConfigError at path."""
    try:
        return spec_type(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}", path=path) from exc


def build_mc_config(cfg: dict) -> McConfig:
    """The study a resolved config describes; simulate and estimate draw its
    replication 0.

    The observation dimension is model.p if given, else
    round(mc.ratio * n / 2^j2). Every model rule and the octave range are
    checked here, before any replication is drawn: the typed specs enforce
    their own rules, and only the facts they cannot see are checked by hand.
    """
    if "model" not in cfg:
        raise ConfigError("model: a model section is required to draw a series", path="model")
    model, analysis, mc = cfg["model"], cfg["analysis"], cfg["mc"]
    r, n = model["r"], model["n"]
    if len(model["hurst"]) != r:
        raise ConfigError(
            f"model.hurst: expected {r} exponents for r={r}, got {len(model['hurst'])}",
            path="model.hurst",
        )
    if n & (n - 1):
        raise ConfigError(f"model.n: must be a power of two, got {n}", path="model.n")
    if "p" in model:
        p = model["p"]
    elif "ratio" in mc:
        p = int(round(math.ldexp(mc["ratio"] * n, -analysis["j2"])))
    else:
        raise ConfigError(
            "model.p: give model.p explicitly or set mc.ratio to derive it",
            path="model.p",
        )
    if p < r:
        raise ConfigError(f"model.p: observation dimension {p} below latent r={r}",
                          path="model.p")
    spec = _typed("model", OfBmSpec, hurst=tuple(model["hurst"]),
                  point_cov=point_covariance(model))
    noise_spec = _typed("model.noise", NoiseSpec, **model["noise"])
    mixing = model["mixing"]
    mixing_spec = _typed("model.mixing.matrix" if "matrix" in mixing else "model.mixing",
                         MixingSpec, mixing["kind"], p, r, mixing.get("matrix"))
    filter_length = make_filter_bank(analysis["family"], analysis["n_vanishing"]).length
    check_octave_range(n, analysis["j1"], analysis["j2"], filter_length)
    return McConfig(
        model=spec,
        mixing_kind=mixing["kind"],
        noise=noise_spec,
        n=n,
        j1=analysis["j1"],
        j2=analysis["j2"],
        p=p,
        replications=mc["replications"],
        master_seed=mc["master_seed"],
        family=analysis["family"],
        n_vanishing=analysis["n_vanishing"],
        weight_scheme=analysis["weights"],
        eigen_floor=analysis["eigen_floor"],
        kappa=analysis["kappa"],
        kappa_grid=tuple(analysis["kappa_grid"]),
        mixing_matrix=mixing_spec.matrix,
    )


# Named experiment presets at their published-scale parameters; scale the
# replication count down with --reps for desk-sized runs.
PRESETS = {
    "fig1": {
        "model": {
            "r": 6,
            "hurst": [0.1, 0.3, 0.5, 0.6, 0.8, 0.9],
            "point_cov": {"toeplitz": [1.0, 0.2, 0.2, 0.3, 0.2, 0.3]},
            "mixing": {"kind": "canonical"},
            "noise": {"kind": "iid_gaussian", "variance": 1.0},
            "n": 65536,
        },
        "analysis": {"j1": 6, "j2": 9},
        "mc": {"replications": 5000, "master_seed": 106, "ratio": 0.25},
    },
    "fig3": {
        "model": {
            "r": 6,
            "hurst": [0.1, 0.3, 0.5, 0.6, 0.8, 0.9],
            "point_cov": {"toeplitz": [1.0, 0.2, 0.2, 0.3, 0.2, 0.3]},
            "mixing": {"kind": "canonical"},
            "noise": {"kind": "iid_gaussian", "variance": 1.0},
            "n": 16384,
        },
        "analysis": {"j1": 5, "j2": 7},
        "mc": {"replications": 5000, "master_seed": 314, "ratio": 0.5},
    },
    "fig4": {
        "model": {
            "r": 3,
            "hurst": [0.25, 0.5, 0.75],
            "mixing": {"kind": "random_unit_columns"},
            "noise": {"kind": "iid_gaussian", "variance": 1.0},
            "n": 4096,
        },
        "analysis": {"j1": 4, "j2": 6},
        "mc": {"replications": 5000, "master_seed": 41, "ratio": 0.5},
    },
}


def preset_config(name: str) -> dict:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    return copy.deepcopy(PRESETS[name])
