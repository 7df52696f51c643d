"""Command-line front end.

    polymerion exact    --config FILE   small-volume reference values
    polymerion series   --config FILE   cluster series on a finite volume
    polymerion radius   --config FILE   certified inverse-temperature scan
    polymerion table1                   closed-form radius table (d = 2, 3, 4)
    polymerion park     [--config FILE] comparison-criterion root scan
    polymerion ks       --config FILE   reduced-correlation hierarchy solve
    polymerion repro                    self-check battery of pinned values
    polymerion validate --config FILE   parse and echo a normalized config

Configs are JSON (see `config`); results go to stdout as JSON or to
`output.path` as CSV or JSON. Exit codes: 0 success, 2 bad config,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import json
import math
import sys

import numpy as np

from . import config as cfgmod
from .convergence import (
    beta_radius,
    nn_radius,
    park_compare,
    park_table_value,
    universal_radius,
)
from .errors import ConfigError, NumericalError, PolymerionError
from .ks import ks_solve
from .model import Region, assemble_hamiltonian, ising_model
from .oracle import (
    Observable,
    Oracle,
    gibbs_expectation,
    partition_function,
    reduced_correlation_exact,
)
from .series import (
    correlation_series,
    expectation_series,
    free_energy_density,
    free_energy_series,
)

__all__ = ["main"]


# ---------------------------------------------------------------------------
# output


def _json_cell(v):
    if isinstance(v, complex):
        return cfgmod.scalar_out(v)
    if isinstance(v, float) and math.isnan(v):
        return None
    return v


def _write_json(stream, rows, meta):
    doc = {}
    if meta:
        doc["meta"] = {k: _json_cell(v) for k, v in meta.items()}
    doc["rows"] = [{k: _json_cell(v) for k, v in r.items()} for r in rows]
    json.dump(doc, stream, indent=2)
    stream.write("\n")


def _write_csv(stream, rows, meta):
    if meta:
        for k, v in meta.items():
            stream.write(f"# {k} = {_json_cell(v)}\n")
    if not rows:
        return
    cols = list(rows[0].keys())
    split = {
        c: any(isinstance(r.get(c), complex) for r in rows) for c in cols
    }
    header = []
    for c in cols:
        header.extend([f"{c}_re", f"{c}_im"] if split[c] else [c])
    w = csv.writer(stream)
    w.writerow(header)
    for r in rows:
        cells = []
        for c in cols:
            v = r.get(c)
            if split[c]:
                v = complex(v) if v is not None else complex("nan")
                cells.extend([repr(v.real), repr(v.imag)])
            elif v is None or (isinstance(v, float) and math.isnan(v)):
                cells.append("")
            else:
                cells.append(v)
        w.writerow(cells)


def _emit(cfg: dict, args, rows, meta, default_format):
    out = cfgmod.section(cfg, "output")
    path = args.output or out.get("path")
    fmt = args.format or out.get("format")
    if fmt is None:
        if path and str(path).endswith(".csv"):
            fmt = "csv"
        elif path and str(path).endswith(".json"):
            fmt = "json"
        else:
            fmt = default_format
    if fmt not in ("csv", "json"):
        raise ConfigError(f"unknown output format {fmt!r}")
    writer = _write_csv if fmt == "csv" else _write_json
    if path:
        with open(path, "w", newline="") as fh:
            writer(fh, rows, meta)
    else:
        writer(sys.stdout, rows, meta)


# ---------------------------------------------------------------------------
# config fragments shared by handlers


def _observable(cfg: dict) -> Observable | None:
    sec = cfg.get("observable")
    if sec is None:
        return None
    if not isinstance(sec, dict) or "data" not in sec:
        raise ConfigError("'observable' needs 'sites' (or 'site') and 'data'")
    raw = sec.get("sites", sec.get("site"))
    if raw is None:
        raise ConfigError("'observable' needs 'sites' (or 'site')")
    if raw and isinstance(raw, list) and isinstance(raw[0], int):
        raw = [raw]
    sites = cfgmod.parse_sites(raw, "observable.sites")
    try:
        return Observable.make(sites, cfgmod.parse_array(sec["data"], "observable.data"))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad observable: {exc}") from exc


def _correlation_sites(cfg: dict):
    sec = cfg.get("correlation")
    if sec is None:
        return None
    if not isinstance(sec, dict) or "sites" not in sec:
        raise ConfigError("'correlation' needs a 'sites' list")
    return cfgmod.parse_sites(sec["sites"], "correlation.sites")


def _beta_row(b: complex) -> dict:
    return {"beta": complex(b)}


# ---------------------------------------------------------------------------
# subcommands


def _cmd_exact(cfg):
    ham = cfgmod.build_hamiltonian(cfg)
    betas = cfgmod.beta_values(cfg)
    obs = _observable(cfg)
    corr = _correlation_sites(cfg)
    orc = None

    def one(b):
        nonlocal orc
        # Each beta's oracle shares the spectra of the one before it.
        orc = Oracle(ham, b) if orc is None else orc.at(b)
        z = orc.z()
        row = _beta_row(b)
        row["z"] = complex(z)
        row["log_z"] = cmath.log(z)
        row["f"] = cmath.log(z) / len(ham.sites)
        if obs is not None:
            row["expectation"] = complex(orc.expectation(obs))
        if corr is not None:
            row["correlation"] = complex(orc.reduced_correlation(corr))
        return row

    rows = [one(b) for b in betas]
    meta = {"sites": len(ham.sites), "bonds": len(ham.bonds), "boundary": ham.boundary}
    return rows, meta


def _cmd_series(cfg):
    betas = cfgmod.beta_values(cfg)
    sec = cfgmod.section(cfg, "series")
    k = cfgmod.option(sec, "series", "max_total_bonds", int, 6, least=0)

    if "region" not in cfg:
        # No finite window: report the thermodynamic free-energy density
        # of the translation-invariant model instead.
        model = cfgmod.build_model(cfg)

        def one_density(b):
            s = free_energy_density(model, b, k)
            row = _beta_row(b)
            row["density"] = complex(s.value)
            row["n_clusters"] = s.n_clusters
            return row

        rows = [one_density(b) for b in betas]
        meta = {"quantity": "free_energy_density", "max_total_bonds": k}
        return rows, meta

    ham = cfgmod.build_hamiltonian(cfg)
    per_site = sec.get("per_site", False)
    if not isinstance(per_site, bool):
        raise ConfigError(f"series.per_site must be true or false, got {per_site!r}")
    obs = _observable(cfg)
    corr = _correlation_sites(cfg)
    g_mode = sec.get("g_mode", "oracle")
    orders = cfgmod.option(sec, "series", "sweep", int, None, many=True, least=0) or [k]

    def one(b, kk):
        s = free_energy_series(ham, b, kk)
        row = _beta_row(b)
        row["truncation"] = kk
        row["log_z"] = complex(s.value)
        if per_site:
            row["per_site"] = complex(s.value / len(ham.sites))
        row["n_clusters"] = s.n_clusters
        if corr is not None:
            row["correlation"] = complex(correlation_series(ham, b, corr, kk).value)
        if obs is not None:
            row["expectation"] = complex(
                expectation_series(
                    ham, b, obs, g_mode=g_mode,
                    correlation_truncation=kk if g_mode == "series" else None,
                ).value
            )
        return row

    rows = [one(b, kk) for b in betas for kk in orders]
    meta = {
        "sites": len(ham.sites),
        "bonds": len(ham.bonds),
        "boundary": ham.boundary,
        "max_total_bonds": max(orders),
    }
    return rows, meta


def _cmd_radius(cfg):
    sec = cfgmod.section(cfg, "radius")
    criterion = sec.get("criterion", "tree")

    if criterion in ("nn", "park"):
        # Closed forms indexed by dimension; no model assembly needed.
        default = cfgmod.build_model(cfg).dimension if "model" in cfg else 2
        d = cfgmod.option(sec, "radius", "dimension", int, default)
        if criterion == "nn":
            r = nn_radius(d)
            rows = [{"dimension": d, "zeta": r.zeta, "bound": r.bound,
                     "beta_star": r.beta_star}]
            meta = {"criterion": "nn", "beta_radius": r.beta_star}
        else:
            val = park_table_value(d)
            rows = [{"dimension": d, "beta_star": val}]
            meta = {"criterion": "park", "beta_radius": val}
        return rows, meta

    if "region" in cfg:
        source = cfgmod.build_hamiltonian(cfg)
    else:
        source = cfgmod.build_model(cfg)
    kw = {}
    if criterion == "gk":
        criterion = "tree"  # "gk" (after `gk_criterion`) is an alias
    if criterion == "tree":
        # a fixes the weight exponent; without it the zeta is searched
        if "a" in sec:
            kw["a"] = cfgmod.option(sec, "radius", "a", float, None)
        if "form" in sec:
            kw["form"] = sec["form"]
    if criterion == "universal":
        kw["alpha"] = cfgmod.option(sec, "radius", "alpha", float, 1.0)
        kw["gamma"] = cfgmod.option(sec, "radius", "gamma", float, 0.5)
    if criterion == "fp":
        kw["max_bonds"] = cfgmod.option(sec, "radius", "max_bonds", int, 4, least=1)
    scan = beta_radius(
        source,
        criterion=criterion,
        lo=cfgmod.option(sec, "radius", "lo", float, 1e-4),
        hi=cfgmod.option(sec, "radius", "hi", float, 2.0),
        per_decade=cfgmod.option(sec, "radius", "per_decade", int, 64),
        **kw,
    )
    rows = [{"beta": b, "certified": ok} for b, ok in scan.points]
    meta = {"criterion": scan.criterion, "beta_radius": scan.beta_radius}
    if criterion == "universal":
        u = universal_radius(source, **kw)
        meta.update(
            kappa=u.kappa, c_kappa=u.c_kappa, m_alpha=u.m_alpha,
            amplitude=u.amplitude, t_star=u.t_star, beta_star=u.beta_star,
        )
    return rows, meta


def _cmd_table1(cfg):
    sec = cfgmod.section(cfg, "table")
    rows = []
    for d in cfgmod.option(sec, "table", "dimensions", int, [2, 3, 4], many=True):
        r = nn_radius(d)
        rows.append(
            {
                "dimension": r.dimension,
                "zeta": r.zeta,
                "bound": r.bound,
                "beta_star": r.beta_star,
                "park_bound": park_table_value(r.dimension),
            }
        )
    return rows, {"objective": "zeta / ((1+2 d zeta)^2 (1+zeta)^(4d-2))"}


def _cmd_park(cfg):
    sec = cfgmod.section(cfg, "park")
    d = cfgmod.option(sec, "park", "dimension", int, 2)
    scan = park_compare(d, cfgmod.option(sec, "park", "alphas", float, None, many=True))
    rows = [
        {"alpha": r.alpha, "y_star": r.y_star, "beta_star": r.beta_star}
        for r in scan.rows
    ]
    meta = {"dimension": d, "sup_y": scan.sup_y, "sup_alpha": scan.sup_alpha}
    return rows, meta


def _cmd_ks(cfg):
    ham = cfgmod.build_hamiltonian(cfg)
    betas = cfgmod.beta_values(cfg)
    if len(betas) != 1:
        raise ConfigError("the hierarchy solver wants a single beta, not a grid")
    sec = cfgmod.section(cfg, "ks")
    cap = cfgmod.option(sec, "ks", "max_subset_size", int, 2, least=1)
    sol = ks_solve(
        ham,
        betas[0],
        a=cfgmod.option(sec, "ks", "a", float, math.log(2.0)),
        tol=cfgmod.option(sec, "ks", "tol", float, 1e-12),
        max_iter=cfgmod.option(sec, "ks", "max_iter", int, 500),
        max_polymer_bonds=cfgmod.option(sec, "ks", "max_polymer_bonds", int, None),
    )
    rows = []
    for X in sorted(sol.g, key=lambda s: (len(s), sorted(s))):
        if len(X) > cap:
            continue
        label = ";".join(",".join(str(c) for c in site) for site in sorted(X))
        rows.append({"sites": label, "size": len(X), "g": complex(sol.g[X])})
    meta = {
        "beta": betas[0],
        "a": sol.a,
        "iterations": sol.iterations,
        "residual": sol.residual,
        "norm_bound": sol.norm_bound,
        "contraction": sol.contraction,
        "converged": sol.converged,
        "n_polymers": sol.kernel.n_polymers,
    }
    return rows, meta


def _cmd_validate(cfg):
    json.dump(cfgmod.normalized_summary(cfg), sys.stdout, indent=2)
    sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# self-check battery


def _repro_checks():
    """(label, passed) for each pinned value, in the order they print."""
    printed = {2: (0.029, 0.015), 3: (0.018, 0.010), 4: (0.013, 0.008)}
    for d, (bound_ref, park_ref) in printed.items():
        r = nn_radius(d)
        yield (
            f"radius table d={d} bound {r.bound:.6f} ~ {bound_ref}",
            math.isclose(r.bound, bound_ref, rel_tol=0.02),
        )
        yield (
            f"radius table d={d} zeta stationarity",
            abs(r.zeta - r.quadratic_zeta) <= 1e-12,
        )
        yield (
            f"radius table d={d} comparison bound {park_table_value(d):.6f} ~ {park_ref}",
            math.isclose(park_table_value(d), park_ref, rel_tol=0.10),
        )

    scan = park_compare(2)
    yield f"comparison scan sup {scan.sup_y:.4f} in (0.03, 0.06)", 0.03 < scan.sup_y < 0.06
    tail = [r.y_star for r in scan.rows if r.alpha >= scan.sup_alpha and r.y_star is not None]
    mono = all(a >= b - 1e-12 for a, b in zip(tail, tail[1:]))
    yield "comparison scan tail decreasing", mono and len(tail) >= 3

    n, beta = 5, 0.25
    ham = assemble_hamiltonian(ising_model(1, 1.0), Region.box((n,)), boundary="periodic")
    z = partition_function(ham, beta)
    ref = math.cosh(beta) ** n + math.sinh(beta) ** n
    yield f"ring partition function n={n}", abs(z - ref) <= 1e-12 * abs(ref)
    s = free_energy_series(ham, beta, 8)
    yield "ring series exponentiates to Z", abs(math.exp(s.value.real) - z.real) <= 1e-6

    ham = assemble_hamiltonian(
        ising_model(1, 1.0, field_h=0.3), Region.box((4,)), boundary="free"
    )
    beta = 0.2
    x0 = ((0,), (3,))
    got = correlation_series(ham, beta, x0, 8).value
    want = reduced_correlation_exact(ham, beta, x0)
    yield "correlation series matches oracle", abs(got - want) <= 1e-8
    obs = Observable.make(((1,),), np.array([1.0, -1.0]))
    e_series = expectation_series(ham, beta, obs).value
    e_exact = gibbs_expectation(ham, beta, obs)
    yield "expectation identity is exact", abs(e_series - e_exact) <= 1e-12

    s = free_energy_density(ising_model(1, 1.0), 0.1, 6)
    ref = math.log(math.cosh(0.1))
    yield f"chain density {s.value.real:.12f} ~ log cosh", abs(s.value - ref) <= 1e-10

    ham = assemble_hamiltonian(ising_model(1, 1.0), Region.box((4,)), boundary="free")
    sol = ks_solve(ham, 0.2, tol=1e-13)
    orc = Oracle(ham, 0.2)
    want = orc.reduced_correlation((0,))
    got = sol.g[frozenset({(0,)})]
    yield "hierarchy solve matches oracle", abs(got - want) <= 1e-10
    yield f"hierarchy norm bound {sol.norm_bound:.3f} < 1", sol.norm_bound < 1.0


def _cmd_repro(cfg):
    failures = 0
    for label, ok in _repro_checks():
        print(f"{'ok  ' if ok else 'FAIL'}  {label}")
        failures += 0 if ok else 1
    print(f"{'all checks passed' if failures == 0 else f'{failures} check(s) failed'}")
    if failures:
        raise NumericalError(f"{failures} reproduction check(s) failed")


# ---------------------------------------------------------------------------
# entry point


# name: (handler, needs --config, default output format). A handler takes
# the config and returns (rows, meta) for `_emit`, or None when it has
# printed its own output.
_COMMANDS = {
    "exact": (_cmd_exact, True, "json"),
    "series": (_cmd_series, True, "json"),
    "radius": (_cmd_radius, True, "json"),
    "table1": (_cmd_table1, False, "csv"),
    "park": (_cmd_park, False, "json"),
    "ks": (_cmd_ks, True, "json"),
    "repro": (_cmd_repro, False, None),
    "validate": (_cmd_validate, True, None),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polymerion",
        description="High-temperature cluster expansions for lattice spin systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, needs_cfg, _) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument(
            "--config", required=needs_cfg, default=None, metavar="FILE",
            help="JSON run configuration",
        )
        p.add_argument("--output", default=None, metavar="PATH", help="write results here")
        p.add_argument("--format", default=None, choices=("csv", "json"))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler, _, default_format = _COMMANDS[args.command]
    try:
        cfg = cfgmod.load_config(args.config) if args.config else {}
        result = handler(cfg)
        if result is not None:
            _emit(cfg, args, *result, default_format)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except PolymerionError as exc:  # pragma: no cover - safety net
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
