"""End-to-end runs of the command line against closed forms and goldens."""

import csv
import json
import math
import os
import subprocess
import sys

import pytest

from polymerion import Oracle, Region, assemble_hamiltonian, ising_model
from polymerion.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
ISING_D2 = {"preset": "ising", "dimension": 2}
# An explicit q = 3 model with one two-site term.
EXPLICIT = {"kind": "classical", "q": 3, "dimension": 1, "terms": [
    {"sites": [[0], [1]], "data": [[-1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, 1.0]]}]}


def write_cfg(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


def read_csv_rows(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return list(csv.DictReader(lines))


def chain_cfg(n, beta, extra=None):
    doc = {
        "model": {"preset": "ising", "dimension": 1},
        "region": {"extent": [n], "boundary": "free"},
        "beta": beta,
    }
    if extra:
        doc.update(extra)
    return doc


def test_exact_chain_matches_closed_form(tmp_path, capsys):
    cfg = write_cfg(tmp_path, chain_cfg(4, 0.3, {"correlation": {"sites": [[1]]}}))
    doc = run_json(capsys, ["exact", "--config", cfg])
    assert doc["meta"]["sites"] == 4 and doc["meta"]["bonds"] == 3
    row = doc["rows"][0]
    z = math.cosh(0.3) ** 3
    assert abs(row["z"] - z) < 1e-12
    assert abs(row["log_z"] - math.log(z)) < 1e-12
    assert abs(row["f"] - math.log(z) / 4) < 1e-12
    # Removing the bonds at site 1 strips two of the three factors.
    assert abs(row["correlation"] - 1.0 / math.cosh(0.3) ** 2) < 1e-12


def test_series_sweep_converges_to_exact(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        chain_cfg(5, 0.075, {"series": {"sweep": [2, 4, 6, 8]}}),
    )
    doc = run_json(capsys, ["series", "--config", cfg])
    assert doc["meta"]["max_total_bonds"] == 8
    exact = 4 * math.log(math.cosh(0.075))
    errs = []
    for row, k in zip(doc["rows"], [2, 4, 6, 8]):
        assert row["truncation"] == k
        errs.append(abs(row["log_z"] - exact))
    assert all(b <= a + 1e-15 for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 1e-10


def test_series_correlation_column_matches_exact_ratio(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        chain_cfg(
            5,
            {"start": 0.05, "stop": 0.1, "points": 2},
            {"series": {"sweep": [4, 6, 8]}, "correlation": {"sites": [[1], [3]]}},
        ),
    )
    doc = run_json(capsys, ["series", "--config", cfg])
    ham = assemble_hamiltonian(ising_model(1), Region.box([5]), boundary="free")
    rows = doc["rows"]
    assert [(row["beta"], row["truncation"]) for row in rows] == [
        (b, k) for b in (0.05, 0.1) for k in (4, 6, 8)
    ]
    # The cluster counts of the free-energy walk at orders 4, 6 and 8.
    assert [row["n_clusters"] for row in rows] == [97, 507, 2061] * 2
    for row in rows:
        want = Oracle(ham, row["beta"]).reduced_correlation([(1,), (3,)])
        tol = 1e-8 if row["truncation"] == 4 else 1e-13
        assert abs(row["correlation"] - want) < tol


def test_series_refuses_a_two_number_observable_list(tmp_path, capsys):
    # [1.0, -1.0] is one complex value [re, im], not a q=2 table, so the
    # observable has one entry where the chain needs two.
    obs = {"sites": [[1]], "data": [1.0, -1.0]}
    cfg = write_cfg(tmp_path, chain_cfg(4, 0.3, {"series": {}, "observable": obs}))
    assert main(["series", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "[re, im]" in err


def test_series_without_region_reports_density(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        {
            "model": {"preset": "ising", "dimension": 1},
            "beta": 0.1,
            "series": {"max_total_bonds": 6},
        },
    )
    doc = run_json(capsys, ["series", "--config", cfg])
    assert doc["meta"]["quantity"] == "free_energy_density"
    assert abs(doc["rows"][0]["density"] - math.log(math.cosh(0.1))) < 1e-10


def test_radius_nn_closed_form(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"radius": {"criterion": "nn", "dimension": 3}})
    doc = run_json(capsys, ["radius", "--config", cfg])
    row = doc["rows"][0]
    assert row["dimension"] == 3
    assert abs(row["zeta"] - 0.0538889726) < 1e-8
    assert abs(row["bound"] - 0.0182059132) < 1e-8
    assert abs(row["beta_star"] - math.log1p(row["bound"])) < 1e-12
    assert doc["meta"]["beta_radius"] == row["beta_star"]


def test_radius_park_closed_form(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"radius": {"criterion": "park", "dimension": 2}})
    doc = run_json(capsys, ["radius", "--config", cfg])
    assert abs(doc["rows"][0]["beta_star"] - 0.015225) < 1e-10


def test_radius_gk_scan_stops_at_the_table_radius(tmp_path, capsys):
    a_star = math.log1p(4 * 0.0873650712)
    cfg = write_cfg(
        tmp_path,
        {
            "model": {"preset": "ising", "dimension": 2},
            "radius": {"criterion": "gk", "a": a_star, "lo": 1e-3, "hi": 0.1},
        },
    )
    doc = run_json(capsys, ["radius", "--config", cfg])
    got = doc["meta"]["beta_radius"]
    assert 0.02 < got <= 0.0287
    flags = [r["certified"] for r in doc["rows"]]
    assert flags[0] and not flags[-1]
    assert flags.index(False) == sum(flags)  # certified points form a prefix


def test_radius_tree_reads_a_as_gk_does(tmp_path, capsys):
    # "gk" is an alias of "tree": both fix the weight exponent from "a". A
    # "tree" scan that ignored "a" searched the zeta instead, and certified
    # ten times further out.
    radius = {"per_decade": 8}
    docs = [{"model": ISING_D2, "radius": dict(radius, criterion=c, a=0.01)}
            for c in ("tree", "gk")]
    docs.append({"model": ISING_D2, "radius": dict(radius, criterion="tree")})
    outs = [run_json(capsys, ["radius", "--config", write_cfg(tmp_path, d)]) for d in docs]
    assert outs[0] == outs[1]
    assert outs[0]["meta"]["beta_radius"] < 0.003 < 0.02 < outs[2]["meta"]["beta_radius"]


@pytest.mark.parametrize("flag", ["no", 1, None])
def test_series_per_site_must_be_a_boolean(tmp_path, capsys, flag):
    cfg = write_cfg(tmp_path, chain_cfg(3, 0.1, {"series": {"per_site": flag}}))
    assert main(["series", "--config", cfg]) == 2
    assert "series.per_site" in capsys.readouterr().err


def test_table1_stdout_matches_golden(capsys):
    code = main(["table1"])
    out = capsys.readouterr().out
    assert code == 0
    got = read_csv_rows(out)
    with open(os.path.join(GOLDEN, "table1.csv")) as fh:
        want = read_csv_rows(fh.read())
    assert len(got) == len(want) == 3
    for g, w in zip(got, want):
        assert g["dimension"] == w["dimension"]
        for col in ("zeta", "bound", "beta_star", "park_bound"):
            assert math.isclose(float(g[col]), float(w[col]), rel_tol=1e-9)


def test_park_scan_matches_golden(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"park": {"dimension": 2}})
    out = tmp_path / "park.json"
    assert main(["park", "--config", cfg, "--output", str(out)]) == 0
    got = json.loads(out.read_text())
    with open(os.path.join(GOLDEN, "park_d2.json")) as fh:
        want = json.load(fh)
    assert math.isclose(got["meta"]["sup_y"], want["meta"]["sup_y"], rel_tol=1e-9)
    assert math.isclose(got["meta"]["sup_alpha"], want["meta"]["sup_alpha"], rel_tol=1e-9)
    assert len(got["rows"]) == len(want["rows"])
    for g, w in zip(got["rows"], want["rows"]):
        for col in ("alpha", "y_star", "beta_star"):
            if w[col] is None:
                assert g[col] is None
            else:
                assert math.isclose(g[col], w[col], rel_tol=1e-9)


def test_ks_csv_matches_exact_correlations(tmp_path):
    cfg = write_cfg(
        tmp_path,
        chain_cfg(4, 0.2, {"ks": {"max_subset_size": 2}}),
    )
    out = tmp_path / "g.csv"
    assert main(["ks", "--config", cfg, "--output", str(out)]) == 0
    rows = read_csv_rows(out.read_text())
    assert rows, "solver wrote no rows"
    ham = assemble_hamiltonian(ising_model(1), Region.box([4]), boundary="free")
    orc = Oracle(ham, 0.2)
    for row in rows:
        sites = [tuple(int(c) for c in part.split(",")) for part in row["sites"].split(";")]
        assert int(row["size"]) == len(sites) <= 2
        got = complex(float(row["g_re"]), float(row["g_im"]))
        assert abs(got - orc.reduced_correlation(sites)) < 1e-8


def test_ks_json_reports_contraction_metadata(tmp_path, capsys):
    cfg = write_cfg(tmp_path, chain_cfg(4, 0.2, {"ks": {"tol": 1e-13}}))
    doc = run_json(capsys, ["ks", "--config", cfg])
    meta = doc["meta"]
    assert meta["converged"] is True
    assert meta["residual"] < 1e-13
    assert meta["norm_bound"] < 1.0


@pytest.mark.parametrize(
    "golden, doc",
    [
        (
            "ks_heisenberg_2x3.json",
            {
                "model": {"preset": "heisenberg", "dimension": 2},
                "region": {"extent": [2, 3], "boundary": "free"},
                "beta": [0.02, 0.01],
                "ks": {"max_subset_size": 6},
            },
        ),
        (
            "ks_ising_3x4_cut4.csv",
            {
                "model": {"preset": "ising", "dimension": 2},
                "region": {"extent": [3, 4], "boundary": "free"},
                "beta": 0.04,
                "ks": {"max_polymer_bonds": 4},
            },
        ),
    ],
)
def test_ks_output_matches_golden_bytes(tmp_path, golden, doc):
    # The goldens were written by the per-subset sweep the solver replaced;
    # the Heisenberg one was rewritten when exactly-real quantum operators
    # began to be stored, and diagonalized, as real matrices. Both were
    # rewritten when the oracle began to take Z of a disconnected bond set
    # as the product over its components. The Heisenberg chain was
    # rewritten again when quantum Gibbs traces began to be summed over
    # the eigenvectors, with no exp(-beta H) matrix. The Ising one was
    # rewritten when classical activities became one Mayer product.
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / golden
    assert main(["ks", "--config", cfg, "--output", str(out)]) == 0
    with open(os.path.join(GOLDEN, golden), "rb") as fh:
        assert out.read_bytes() == fh.read()


@pytest.mark.parametrize(
    "command, golden, doc",
    [
        ("park", "park_d3_alphas.json",
         {"park": {"dimension": 3, "alphas": [0.5, 1.0, 2.0, 4.0, 8.0, 16.0]}}),
        ("radius", "radius_universal_model.csv",
         {"model": {"preset": "heisenberg", "dimension": 2},
          "radius": {"criterion": "universal", "alpha": 0.8, "gamma": 0.4,
                     "lo": 0.001, "hi": 1.0, "per_decade": 8}}),
        ("radius", "radius_universal_region.json",
         {"model": {"preset": "ising", "dimension": 2, "field": 0.3},
          "region": {"extent": [2, 3], "boundary": "free"},
          "radius": {"criterion": "universal", "lo": 0.001, "hi": 1.0, "per_decade": 8}}),
        ("series", "series_observable_2x3.csv",
         {"model": {"preset": "ising", "dimension": 2, "field": 0.3},
          "region": {"extent": [2, 3], "boundary": "free"},
          "beta": [0.1, 0.02], "series": {"sweep": [2, 4]},
          "observable": {"sites": [[0, 1]], "data": [[1.0, 0.0], [-1.0, 0.0]]}}),
        ("series", "series_observable_heisenberg_chain4.json",
         {"model": {"preset": "heisenberg", "dimension": 1},
          "region": {"extent": [4], "boundary": "free"},
          "beta": [0.05, 0.01], "series": {"max_total_bonds": 3, "g_mode": "series"},
          "observable": {"sites": [[1], [2]],
                         "data": [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1]]}}),
    ],
)
def test_output_matches_golden_bytes(tmp_path, command, golden, doc):
    # Written before the subfamily sums, bond weights, site sums and the
    # park scan each moved behind one function. The Heisenberg chain was
    # rewritten when exactly-real quantum operators began to be stored,
    # and diagonalized, as real matrices. Both series goldens were
    # rewritten when the oracle began to take Z of a disconnected bond set
    # as the product over its components. The Heisenberg chain was
    # rewritten again when quantum Gibbs traces began to be summed over
    # the eigenvectors, with no exp(-beta H) matrix. The Ising 2x3 patch
    # was rewritten when classical activities and the classical weights
    # K(A, B) became Mayer products.
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / golden
    assert main([command, "--config", cfg, "--output", str(out)]) == 0
    with open(os.path.join(GOLDEN, golden), "rb") as fh:
        assert out.read_bytes() == fh.read()


SINGLE_THREAD = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


@pytest.mark.parametrize(
    "golden, doc",
    [
        ("exact_heisenberg_3x3.json",
         {"model": {"preset": "heisenberg", "dimension": 2},
          "region": {"extent": [3, 3], "boundary": "free"},
          "beta": {"start": 0.1, "stop": 0.4, "points": 2},
          "observable": {"sites": [[0, 0], [1, 1]],
                         "data": [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1]]},
          "correlation": {"sites": [[1, 1], [2, 1]]}}),
        ("exact_ising_3x4_grid.csv",
         {"model": {"preset": "ising", "dimension": 2, "field": 0.3},
          "region": {"extent": [3, 4], "boundary": "free"},
          "beta": {"start": 0.1, "stop": 0.4, "points": 4},
          "observable": {"sites": [[0, 1]], "data": [[1.0, 0.0], [-1.0, 0.0]]},
          "correlation": {"sites": [[1, 1]]}}),
        ("exact_xy_ring8_complex.json",
         {"model": {"preset": "xy", "dimension": 1},
          "region": {"extent": [8], "boundary": "periodic"},
          "beta": [0.2, 0.1],
          "observable": {"sites": [[0], [1]],
                         "data": [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1]]},
          "correlation": {"sites": [[0], [3]]}}),
    ],
)
def test_exact_output_matches_golden_bytes(tmp_path, golden, doc):
    # The Ising grid was written before the bond operators were embedded by
    # one broadcast. The Heisenberg and XY goldens were rewritten when
    # exactly-real quantum operators began to be stored, and diagonalized,
    # as real matrices. The XY one was rewritten again when the oracle
    # began to take Z of a disconnected bond set (here the one behind its
    # correlation) as the product over its components. Both were rewritten
    # again when matrices of 128 rows and more began to be diagonalized
    # block by block, and Gibbs traces summed over the eigenvectors.
    # Dense eigensolvers and products of 256 rows and more split their sums
    # over BLAS threads, so their last digits depend on the thread count:
    # these goldens were written, and are checked, with one BLAS thread.
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / golden
    env = dict(os.environ, **SINGLE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    argv = ["exact", "--config", cfg, "--output", str(out)]
    run = subprocess.run(
        [sys.executable, "-c", "import sys; from polymerion.cli import main; sys.exit(main())"]
        + argv, env=env, capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr
    with open(os.path.join(GOLDEN, golden), "rb") as fh:
        assert out.read_bytes() == fh.read()


@pytest.mark.parametrize(
    "command, doc",
    [
        ("series", chain_cfg(4, 0.2, {"series": {"max_total_bonds": "x"}})),
        ("series", chain_cfg(4, 0.2, {"series": {"sweep": [2, "x"]}})),
        ("radius", {"radius": {"criterion": "nn", "dimension": "two"}}),
        ("radius", {"model": {"preset": "ising", "dimension": 2},
                    "radius": {"criterion": "universal", "alpha": "one"}}),
        ("radius", {"model": {"preset": "ising", "dimension": 2},
                    "radius": {"criterion": "tree", "per_decade": "many"}}),
        ("park", {"park": {"dimension": "two"}}),
        ("park", {"park": {"alphas": ["x"]}}),
        ("table1", {"table": {"dimensions": ["x"]}}),
        ("exact", chain_cfg(4, 0.2, {"model": {"preset": "ising", "dimension": "one"}})),
        ("exact", chain_cfg(4, 0.2, {"model": {"preset": "ising", "dimension": 1,
                                               "field": "strong"}})),
        # Numbers that parse but cannot be meant: each used to end in a
        # traceback (exit 1), a numerical failure (exit 3), or a grid end
        # reported as a certified radius.
        ("park", {"park": {"dimension": 0}}),
        ("radius", {"radius": {"criterion": "park", "dimension": 0}}),
        ("series", chain_cfg(3, 0.3, {"series": {"max_total_bonds": -2}})),
        ("series", chain_cfg(3, 0.3, {"series": {"sweep": [2, -1]}})),
        ("radius", {"model": ISING_D2, "radius": {"per_decade": 0}}),
        ("radius", {"model": ISING_D2, "radius": {"criterion": "universal", "per_decade": 0}}),
        ("radius", {"model": ISING_D2, "radius": {"lo": 0}}),
        ("radius", {"model": ISING_D2, "radius": {"lo": -1}}),
        ("radius", {"model": ISING_D2, "radius": {"lo": 0.1, "hi": 0.1}}),
        ("radius", {"model": ISING_D2, "radius": {"lo": 0.1, "hi": 0.01}}),
        # A fixed-point scan without polymers, and a volume without bonds,
        # ended in an uncaught ValueError.
        ("radius", chain_cfg(4, 0.1, {"radius": {"criterion": "fp", "max_bonds": 0}})),
        ("radius", chain_cfg(1, 0.1, {"radius": {"criterion": "fp"}})),
        ("radius", chain_cfg(1, 0.1, {"radius": {"criterion": "tree"}})),
        # An integer option given a fraction or a boolean: int() truncated
        # 2.5 to 2 and read true as 1, and the command exited 0.
        ("radius", chain_cfg(4, 0.1, {"radius": {"criterion": "fp", "max_bonds": 2.5}})),
        ("radius", {"model": ISING_D2, "radius": {"per_decade": 2.5}}),
        ("series", chain_cfg(3, 0.3, {"series": {"max_total_bonds": True}})),
        # The beta grid, the extent and the explicit model's q and dimension
        # were read without `option`: 2.5 points gave two, true one point at
        # beta 1.0, and an extent [true, 3] a 1x3 box, each with exit 0.
        ("exact", chain_cfg(4, {"start": 0.1, "stop": 0.2, "points": 2.5})),
        ("exact", chain_cfg(4, {"start": 0.1, "stop": 0.2, "points": True})),
        ("exact", chain_cfg(4, {"start": True, "stop": 0.2, "points": 1})),
        ("exact", {"model": ISING_D2, "region": {"extent": [True, 3]}, "beta": 0.1}),
        ("exact", {"model": dict(EXPLICIT, dimension=True), "region": {"extent": [3]},
                   "beta": 0.1}),
        ("exact", {"model": dict(EXPLICIT, q=3.5), "region": {"extent": [3]}, "beta": 0.1}),
    ],
)
def test_unparsable_numbers_are_config_errors(tmp_path, capsys, command, doc):
    cfg = write_cfg(tmp_path, doc)
    assert main([command, "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert "config error" in captured.err and captured.out == ""


def test_integral_floats_are_read_as_integers(tmp_path, capsys):
    docs = [chain_cfg(4, 0.1, {"radius": {"criterion": "fp", "max_bonds": m}}) for m in (2, 2.0)]
    outs = [run_json(capsys, ["radius", "--config", write_cfg(tmp_path, d)]) for d in docs]
    assert outs[0] == outs[1]
    docs = [
        {"model": dict(EXPLICIT, q=q, dimension=d), "region": {"extent": [n]},
         "beta": {"start": 0.1, "stop": 0.2, "points": p}}
        for q, d, n, p in ((3, 1, 3, 2), (3.0, 1.0, 3.0, 2.0))
    ]
    outs = [run_json(capsys, ["exact", "--config", write_cfg(tmp_path, d)]) for d in docs]
    assert outs[0] == outs[1] and len(outs[0]["rows"]) == 2


SECTIONS = [("series", "series"), ("radius", "radius"), ("table1", "table"),
            ("park", "park"), ("ks", "ks"), ("table1", "output")]


@pytest.mark.parametrize(
    "command, name",
    SECTIONS + [("validate", name) for _, name in SECTIONS],
)
def test_sections_must_be_objects(tmp_path, capsys, command, name):
    cfg = write_cfg(tmp_path, chain_cfg(4, 0.2, {name: [1, 2]}))
    assert main([command, "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: '{name}' must be an object\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "ks",
    [
        {"max_iter": "abc"},
        {"max_subset_size": "x"},
        {"max_polymer_bonds": "four"},
        {"max_iter": 0},
        {"a": "nan"},
        {"tol": -1.0},
        {"max_polymer_bonds": 0},
        {"max_subset_size": 0},
    ],
)
def test_ks_refuses_bad_options(tmp_path, capsys, ks):
    cfg = write_cfg(tmp_path, chain_cfg(4, 0.2, {"ks": ks}))
    assert main(["ks", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert "config error" in captured.err and captured.out == ""


def test_ks_diverging_hierarchy_is_a_numerical_failure(tmp_path, capsys):
    doc = chain_cfg(6, 2.0)
    doc["region"]["boundary"] = "periodic"
    cfg = write_cfg(tmp_path, doc)
    assert main(["ks", "--config", cfg]) == 3
    captured = capsys.readouterr()
    assert "numerical failure" in captured.err and captured.out == ""


def test_validate_echoes_normalized_config(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        chain_cfg(4, 0.3, {"series": {"max_total_bonds": 6}}),
    )
    doc = run_json(capsys, ["validate", "--config", cfg])
    assert doc["model"]["kind"] == "classical"
    assert doc["region"]["sites"] == 4
    assert doc["beta"]["points"] == 1
    assert doc["series"] == {"max_total_bonds": 6}


def test_repro_battery_passes(capsys):
    assert main(["repro"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert "FAIL" not in out
    assert out.count("\n") == 19  # 18 checks and the summary line


def test_format_flag_beats_path_extension(tmp_path):
    out = tmp_path / "t.csv"
    assert main(["table1", "--output", str(out), "--format", "json"]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["rows"]) == 3


def test_exit_codes(tmp_path, capsys):
    # Unreadable config file.
    assert main(["exact", "--config", str(tmp_path / "missing.json")]) == 2
    assert "config error" in capsys.readouterr().err

    # Unknown preset.
    bad = write_cfg(tmp_path, chain_cfg(4, 0.3), name="bad.json")
    doc = json.loads(open(bad).read())
    doc["model"]["preset"] = "bogus"
    bad = write_cfg(tmp_path, doc, name="bad.json")
    assert main(["exact", "--config", bad]) == 2

    # Beta grids are rejected by the hierarchy solver.
    grid = write_cfg(
        tmp_path,
        chain_cfg(4, {"start": 0.1, "stop": 0.2, "points": 3}),
        name="grid.json",
    )
    assert main(["ks", "--config", grid]) == 2

    # Volume too large for the dense oracle.
    huge = write_cfg(tmp_path, chain_cfg(21, 0.1), name="huge.json")
    assert main(["exact", "--config", huge]) == 3
    assert "numerical failure" in capsys.readouterr().err

    # A quantum volume past the dense-matrix cap is refused before any
    # matrix is allocated: 2^13 rows would be a 1 GiB complex matrix.
    spins = chain_cfg(13, 0.1, {"model": {"preset": "heisenberg", "dimension": 1}})
    spins = write_cfg(tmp_path, spins, name="spins.json")
    assert main(["exact", "--config", spins]) == 3
    assert "numerical failure" in capsys.readouterr().err

    # Partition function overflows at very low temperature.
    cold = write_cfg(tmp_path, chain_cfg(8, 400.0), name="cold.json")
    assert main(["exact", "--config", cold]) == 3
    assert "numerical failure" in capsys.readouterr().err
