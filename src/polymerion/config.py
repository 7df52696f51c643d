"""JSON run-configuration parsing shared by the command-line tools.

One file drives every subcommand. Sections, all optional unless a
command needs them:

    model        preset name with parameters, or explicit interaction
                 terms (complex matrix entries written as [re, im])
    region       box extent, boundary condition, single-site state for
                 the product boundary
    beta         scalar, [re, im], or a grid {start, stop, points,
                 scale: linear|geometric}
    series       truncation, order sweep and columns for the cluster series
    radius       criterion and scan window for certified radii
    observable   site support and data for expectation values
    correlation  site list for reduced-correlation ratios
    ks           weight, tolerance, caps for the hierarchy solver
    table / park dimensions and scan parameters for the tabulations
    output       path and format (csv or json); default stdout json
"""

from __future__ import annotations

import json

import numpy as np

from .errors import ConfigError
from .model import (
    CLASSICAL,
    QUANTUM,
    Hamiltonian,
    LatticeModel,
    Region,
    _real_if_exact,
    as_site,
    assemble_hamiltonian,
    heisenberg_model,
    ising_model,
    potts_model,
    xy_model,
)
from .numeric import _array, _cast

__all__ = [
    "load_config",
    "section",
    "option",
    "parse_scalar",
    "parse_array",
    "build_model",
    "build_region",
    "build_hamiltonian",
    "beta_values",
    "normalized_summary",
]

_PRESETS = {"ising", "potts", "heisenberg", "xy"}


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("top-level config must be a JSON object")
    return cfg


def section(cfg: dict, name: str) -> dict:
    """cfg[name], which must be an object; a missing section is empty."""
    sec = cfg.get(name, {})
    if not isinstance(sec, dict):
        raise ConfigError(f"'{name}' must be an object")
    return sec


def option(sec: dict, section: str, key: str, cast, default, many: bool = False,
           least=None):
    """sec[key] passed through `cast` (int or float); an unparsable value, or
    one below `least`, is a ConfigError. With `many` the value is a nonempty
    list, cast and checked entry by entry.

    A missing key gives `default`; with a None default, null means unset.
    """
    raw = sec.get(key, default)
    if raw is None and default is None:
        return None
    where = f"{section}.{key}"
    if not many:
        return _cast(raw, where, cast, least)
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"{where} must be a nonempty list, got {raw!r}")
    return [_cast(v, f"{where}[{i}]", cast, least) for i, v in enumerate(raw)]


def parse_scalar(value, where: str = "value") -> complex:
    """A number, or a [re, im] pair."""
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(*(_cast(v, where, float) for v in value))
    return _cast(value, where, complex)


def parse_array(data, where: str = "data") -> np.ndarray:
    """Nested lists with scalar or [re, im] leaves."""

    def walk(node):
        # a list of two entries that are not lists is one [re, im] value
        if isinstance(node, list) and (len(node) != 2 or any(isinstance(v, list) for v in node)):
            return [walk(v) for v in node]
        return parse_scalar(node, where)

    return _real_if_exact(_array(walk(data), where))


def parse_sites(v, where: str = "sites"):
    if not isinstance(v, list) or not v:
        raise ConfigError(f"{where} must be a nonempty list of sites")
    try:
        return tuple(as_site(s) for s in v)
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def build_model(cfg: dict) -> LatticeModel:
    sec = cfg.get("model")
    if not isinstance(sec, dict):
        raise ConfigError("config needs a 'model' object")
    preset = sec.get("preset")
    if preset is not None:
        if preset not in _PRESETS:
            raise ConfigError(f"unknown preset {preset!r}; choose from {sorted(_PRESETS)}")
        d = option(sec, "model", "dimension", int, 1)
        j = option(sec, "model", "coupling", float, 1.0)
        if preset == "ising":
            return ising_model(d, j, field_h=option(sec, "model", "field", float, 0.0))
        if preset == "potts":
            return potts_model(option(sec, "model", "q", int, 3), d, j)
        if preset == "heisenberg":
            return heisenberg_model(d, j)
        return xy_model(d, j)
    kind = sec.get("kind")
    if kind not in (CLASSICAL, QUANTUM):
        raise ConfigError("explicit model needs kind 'classical' or 'quantum'")
    q = option(sec, "model", "q", int, None, least=2)
    d = option(sec, "model", "dimension", int, None, least=1)
    if q is None or d is None:
        raise ConfigError("explicit model needs integer q >= 2 and dimension >= 1")
    terms = sec.get("terms")
    if not isinstance(terms, list) or not terms:
        raise ConfigError("explicit model needs a nonempty 'terms' list")
    parsed = []
    for k, t in enumerate(terms):
        if not isinstance(t, dict) or "sites" not in t or "data" not in t:
            raise ConfigError(f"terms[{k}] needs 'sites' and 'data'")
        parsed.append((parse_sites(t["sites"], f"terms[{k}].sites"),
                       parse_array(t["data"], f"terms[{k}].data")))
    return LatticeModel.from_templates(d, q, kind, parsed)


def build_region(cfg: dict, dimension: int):
    sec = cfg.get("region")
    if not isinstance(sec, dict):
        raise ConfigError("config needs a 'region' object")
    extent = option(sec, "region", "extent", int, None, many=True, least=1)
    if extent is None or len(extent) != dimension:
        raise ConfigError(f"region.extent must list {dimension} positive integers")
    boundary = sec.get("boundary", "free")
    if boundary not in ("free", "periodic", "product"):
        raise ConfigError("region.boundary must be free, periodic, or product")
    theta = None
    if boundary == "product":
        if "theta" not in sec:
            raise ConfigError("product boundary needs region.theta")
        theta = parse_array(sec["theta"], "region.theta")
    return Region.box(tuple(extent)), boundary, theta


def build_hamiltonian(cfg: dict) -> Hamiltonian:
    model = build_model(cfg)
    region, boundary, theta = build_region(cfg, model.dimension)
    return assemble_hamiltonian(model, region, boundary=boundary, theta=theta)


def beta_values(cfg: dict) -> list[complex]:
    sec = cfg.get("beta")
    if sec is None:
        raise ConfigError("config needs a 'beta' entry")
    if isinstance(sec, dict):
        start = option(sec, "beta", "start", float, None)
        stop = option(sec, "beta", "stop", float, None)
        points = option(sec, "beta", "points", int, None, least=1)
        if None in (start, stop, points):
            raise ConfigError("beta grid needs numeric start, stop, points")
        scale = sec.get("scale", "linear")
        if scale == "linear":
            grid = np.linspace(start, stop, points)
        elif scale == "geometric":
            if start <= 0 or stop <= 0:
                raise ConfigError("geometric beta grid needs positive endpoints")
            grid = np.geomspace(start, stop, points)
        else:
            raise ConfigError("beta grid scale must be linear or geometric")
        return [complex(b) for b in grid]
    return [parse_scalar(sec, "beta")]


def scalar_out(z: complex):
    """JSON-friendly number: float when real, [re, im] otherwise."""
    z = complex(z)
    if z.imag == 0.0:
        return z.real
    return [z.real, z.imag]


def normalized_summary(cfg: dict) -> dict:
    """Parse everything present and echo a normalized view."""
    out: dict = {}
    if "model" in cfg:
        model = build_model(cfg)
        out["model"] = {
            "kind": model.kind,
            "q": model.q,
            "dimension": model.dimension,
            "templates": len(model.templates),
            "range": model.range(),
        }
        if "region" in cfg:
            ham = build_hamiltonian(cfg)
            out["region"] = {
                "sites": len(ham.sites),
                "bonds": len(ham.bonds),
                "boundary": ham.boundary,
                **{k: v for k, v in ham.meta.items()},
            }
    if "beta" in cfg:
        vals = beta_values(cfg)
        out["beta"] = {"points": len(vals), "values": [scalar_out(b) for b in vals[:8]]}
        if len(vals) > 8:
            out["beta"]["values_truncated"] = True
    for key in ("series", "radius", "observable", "correlation", "ks",
                "table", "park", "output"):
        if key in cfg:
            out[key] = dict(section(cfg, key))
    return out
