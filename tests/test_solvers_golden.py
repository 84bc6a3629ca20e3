"""Golden solver bits: every closed-form solver keeps its exact output.

``data/solvers_golden.json`` holds seeded inputs and, for each, the output
of ``estimate_position`` for all six solvers (and ``wls-bc`` with the cross
term) as float hex, or the name of the exception it raised, plus the
number of ``DegenerateWeightsWarning``s it emitted. The inputs cover one
row and batches of rows for 3 to 8 anchors, rows without usable variances
(no noise, or a d^4 that underflows), ``wls-bc`` rows that fall back to
``wls``, per-anchor sigma arrays, near-collinear and collinear anchors,
and inputs that break the solvers' contract (2 anchors, one distance
short). Inputs are stored as float hex too, so the file pins the solvers
and not a random generator.

Running this file rewrites the data file from the solvers as they are;
do that only for a change that is meant to move solver output, and say
which rows moved and by how much:

    PYTHONPATH=src python tests/test_solvers_golden.py
"""

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from rssiloc import estimate_position
from rssiloc.exceptions import DegenerateWeightsWarning, RssilocError

GOLDEN = Path(__file__).parent / "data" / "solvers_golden.json"
SEED = 2402
ROWS = 16
SOLVERS = ("trilateration", "lls", "wls", "wls-bc", "hyperbolic", "hyperbolic-w")


def _hex(values) -> dict:
    arr = np.asarray(values, dtype=float)
    return {"shape": list(arr.shape), "hex": [float(v).hex() for v in arr.ravel()]}


def _unhex(record) -> np.ndarray:
    return np.array([float.fromhex(v) for v in record["hex"]]).reshape(record["shape"])


def _noisy(rng, anchors, targets, sigma_p, eta):
    true = np.sqrt(((targets[:, None, :] - anchors) ** 2).sum(axis=2))
    scale = sigma_p * math.log(10.0) / (10.0 * eta)
    return true * np.exp(rng.normal(0.0, scale, true.shape))


def _inputs():
    """(name, anchors, distances, sigmas_a, sigmas_p, eta) of every case."""
    rng = np.random.default_rng(SEED)
    cases = []
    for m in range(3, 9):
        anchors = rng.uniform(0.0, 1000.0, (m, 2))
        targets = rng.uniform(-200.0, 1200.0, (ROWS, 2))
        for sigma_a, sigma_p, eta in ((0.0, 4.0, 2.0), (5.0, 8.0, 3.0), (2.0, 12.0, 2.0)):
            d = _noisy(rng, anchors, targets, sigma_p, eta)
            name = f"m{m}-sa{sigma_a:g}-sp{sigma_p:g}-eta{eta:g}"
            cases.append((name, anchors, d, sigma_a, sigma_p, eta))
            cases.append((name + "-row", anchors, d[0], sigma_a, sigma_p, eta))
    anchors = rng.uniform(0.0, 1000.0, (5, 2))
    targets = rng.uniform(0.0, 1000.0, (ROWS, 2))
    d = _noisy(rng, anchors, targets, 4.0, 2.0)
    cases.append(("per-anchor-sigmas", anchors, d, rng.uniform(0.0, 6.0, 5),
                   rng.uniform(2.0, 9.0, 5), 2.5))
    cases.append(("no-noise", anchors, d, 0.0, 0.0, 2.0))
    cases.append(("no-noise-row", anchors, d[3], 0.0, 0.0, 2.0))
    tiny = d.copy()
    tiny[[2, 9], 1] = 1e-90  # d^4 underflows: zero variance, unweighted rows
    cases.append(("underflow-rows", anchors, tiny, 0.0, 4.0, 2.0))
    # strong anchor and shadowing noise around a small anchor set: some
    # compensated systems lose definiteness
    targets = rng.uniform(0.0, 1000.0, (ROWS, 2))
    for m in (3, 4, 6):
        anchors = rng.uniform(0.0, 300.0, (m, 2))
        cases.append((f"fallback-m{m}", anchors,
                      _noisy(rng, anchors, targets, 14.0, 1.8), 10.0, 14.0, 1.8))
    for offset in (1e-3, 1e-9, 1e-13, 0.0):
        anchors = np.array([[0.0, 0.0], [500.0, offset], [1000.0, 0.0], [250.0, -offset]])
        cases.append((f"collinear-{offset:g}", anchors,
                      _noisy(rng, anchors, targets, 4.0, 2.0), 0.5, 4.0, 2.0))
    # the input contract: every solver refuses too few anchors, and a
    # distance row shorter than the anchor list
    anchors = rng.uniform(0.0, 1000.0, (4, 2))
    d = _noisy(rng, anchors, targets, 4.0, 2.0)
    cases.append(("two-anchors", anchors[:2], d[:, :2], 0.5, 4.0, 2.0))
    cases.append(("one-distance-short", anchors, d[:, :3], 0.5, 4.0, 2.0))
    return cases


def _run(solver, anchors, distances, sigmas_a, sigmas_p, eta, cross=False) -> dict:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = {"out": _hex(estimate_position(
                solver, anchors, distances, sigmas_a=sigmas_a, sigmas_p=sigmas_p,
                eta=eta, include_cross_term=cross))}
        except (RssilocError, ValueError) as exc:
            out = {"error": type(exc).__name__}
    out["warnings"] = sum(issubclass(w.category, DegenerateWeightsWarning) for w in caught)
    return out


def _outputs(anchors, distances, sigmas_a, sigmas_p, eta) -> dict:
    args = (anchors, distances, sigmas_a, sigmas_p, eta)
    out = {s: _run(s, *args) for s in SOLVERS}
    out["wls-bc-cross"] = _run("wls-bc", *args, cross=True)
    return out


def _write():
    cases = [{"name": name, "anchors": _hex(a), "distances": _hex(d),
              "sigmas_a": _hex(sa), "sigmas_p": _hex(sp), "eta": eta,
              "outputs": _outputs(a, d, sa, sp, eta)}
             for name, a, d, sa, sp, eta in _inputs()]
    GOLDEN.write_text(json.dumps({"seed": SEED, "cases": cases}, indent=0) + "\n")


CASES = json.loads(GOLDEN.read_text())["cases"] if GOLDEN.exists() else []


def test_golden_file_covers_the_hard_rows():
    outputs = [c["outputs"] for c in CASES]
    assert {len(c["anchors"]["hex"]) // 2 for c in CASES} >= set(range(3, 9))
    assert any(o["wls"]["warnings"] for o in outputs)  # unweighted rows
    assert any("error" in o["lls"] for o in outputs)   # a rank-deficient design
    fallback = [c for c in CASES if c["name"].startswith("fallback")]
    # wls-bc fell back on some rows but not all: its output differs from wls
    # on some rows and equals it on others
    for case in fallback:
        bc, wls = (_unhex(case["outputs"][s]["out"]) for s in ("wls-bc", "wls"))
        same = (bc == wls).all(axis=1)
        assert same.any() and not same.all(), case["name"]


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_solver_outputs_are_bit_identical(case):
    args = [_unhex(case[k]) for k in ("anchors", "distances", "sigmas_a", "sigmas_p")]
    assert _outputs(*args, case["eta"]) == case["outputs"]


if __name__ == "__main__":
    _write()
