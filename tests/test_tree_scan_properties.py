"""Property tests of the tree radius scan, which bisects for the end of its
certified prefix, against `gk_criterion` evaluated at every grid point, on
lattice models and finite boxes, in every form and with `a` or `zeta`
fixed, on random windows across the certified threshold."""

import functools
import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from polymerion import (  # noqa: E402
    Region,
    assemble_hamiltonian,
    beta_radius,
    gk_criterion,
    heisenberg_model,
    ising_model,
    potts_model,
    xy_model,
)
from polymerion.convergence import (  # noqa: E402
    TREE_FORMS,
    _tree_certificate,
    _tree_structure,
)

SOURCES = (
    ising_model(2),
    ising_model(1, field_h=0.3),
    heisenberg_model(2),
    xy_model(2),
    potts_model(3, 2),
    assemble_hamiltonian(ising_model(2), Region.box([3, 3])),
    assemble_hamiltonian(ising_model(2, field_h=0.3), Region.box([2, 3])),
    assemble_hamiltonian(heisenberg_model(2), Region.box([2, 3])),
    assemble_hamiltonian(ising_model(1), Region.box([6]), boundary="periodic"),
)


@functools.cache
def _threshold(index: int, form: str, a, zeta) -> float:
    """The certified threshold in beta of source `index`, located to about
    1e-9 relative by bisection on log beta, to centre windows on."""
    structure = _tree_structure(SOURCES[index], form)
    lo, hi = math.log(1e-12), math.log(10.0)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _tree_certificate(structure, math.exp(mid), a, zeta, form).holds:
            lo = mid
        else:
            hi = mid
    return math.exp(lo)


@st.composite
def scans(draw):
    """(source index, gk_criterion keywords, lo, hi, per_decade) of a window
    across the threshold; the anchored truncation, which never decides
    `.holds`, is kept small so that gk_criterion is cheap."""
    index = draw(st.integers(0, len(SOURCES) - 1))
    kw = {"form": draw(st.sampled_from(TREE_FORMS)),
          "anchored_truncation": draw(st.integers(0, 2))}
    fixed = draw(st.sampled_from([None, "a", "zeta"]))
    if fixed == "a":
        kw["a"] = draw(st.floats(0.01, 1.0))
    elif fixed == "zeta":
        kw["zeta"] = draw(st.floats(1e-3, 0.5))
    t = _threshold(index, kw["form"], kw.get("a"), kw.get("zeta"))
    lo = t * 10 ** -draw(st.floats(1e-3, 1.5))
    hi = t * 10 ** draw(st.floats(1e-3, 1.5))
    return index, kw, lo, hi, draw(st.integers(1, 16))


@hypothesis.settings(max_examples=60, deadline=None, database=None)
@hypothesis.given(case=scans())
def test_tree_scan_flags_every_point_as_gk_criterion_at_it(case):
    # The scan evaluates a few points and infers the rest; every flag must
    # still be the one gk_criterion gives at that point.
    index, kw, lo, hi, per_decade = case
    source = SOURCES[index]
    scan = beta_radius(source, "tree", lo=lo, hi=hi, per_decade=per_decade, **kw)
    for beta, ok in scan.points:
        assert ok == gk_criterion(source, beta, **kw).holds, (beta, kw)
    flags = [ok for _, ok in scan.points]
    assert flags[0] and not flags[-1]
