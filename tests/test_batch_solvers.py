"""Batches of fixes: estimate_position on (N, M) distances and locate's
one call per anchor mask give the same answers as one row at a time."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from _synth import exact_distances, load_all_columns, random_scene_points
from rssiloc import solvers
from rssiloc.cli import main
from rssiloc.core import PathLossParams
from rssiloc.exceptions import DegenerateWeightsWarning, NotPositiveDefinite
from rssiloc.ingest import write_csv
from rssiloc.radio import distance_from_rssi
from rssiloc.solvers import SOLVER_NAMES, estimate_position

def noisy_batch(rng, m, n):
    anchors = random_scene_points(rng, m)
    targets = rng.uniform(20.0, 380.0, (n, 2))
    d = np.array([exact_distances(anchors, t) for t in targets])
    return anchors, d * rng.uniform(0.8, 1.2, d.shape)


def assert_rows_match(solver, anchors, d, **kw):
    batch = estimate_position(solver, anchors, d, **kw)
    assert batch.shape == (len(d), 2)
    for i, row in enumerate(d):
        single = estimate_position(solver, anchors, row, **kw)
        assert single.shape == (2,)
        np.testing.assert_array_equal(batch[i], single, err_msg=solver)


def bias_compensated_rows(anchors, d, sigma_a, sigma_p):
    """Per-row outcome of the bias-compensated solve: True where it holds."""
    ok = []
    for row in d:
        w = solvers.build_weights(anchors, row, sigma_a, sigma_p, 2.0)
        bias = solvers.build_bias_terms(anchors, row, sigma_a, sigma_p, 2.0, w)
        try:
            solvers.bias_compensated_solve(solvers.linearize(anchors, row), w, bias)
            ok.append(True)
        except NotPositiveDefinite:
            ok.append(False)
    return np.array(ok)


class TestBatchEqualsRows:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), m=st.sampled_from([3, 4, 5, 8, 12]),
           n=st.integers(1, 12), sigma_p=st.floats(0.0, 4.0),
           sigma_a=st.one_of(st.floats(0.0, 5.0), st.floats(100.0, 400.0)),
           tiny=st.booleans())
    @example(seed=7, m=5, n=9, sigma_p=2.0, sigma_a=0.0, tiny=True)
    def test_every_solver(self, seed, m, n, sigma_p, sigma_a, tiny):
        anchors, d = noisy_batch(np.random.default_rng(seed), m, n)
        if tiny:  # d^4 underflows: at sigma_a = 0 these rows are unweighted
            d[::3, 0] = 1e-90
            d[1::3] = 1e-90
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateWeightsWarning)
            for solver in SOLVER_NAMES:
                assert_rows_match(solver, anchors, d, sigmas_a=sigma_a,
                                  sigmas_p=sigma_p)

    def test_wls_bc_falls_back_per_row(self, monkeypatch):
        rng = np.random.default_rng(5)
        anchors = np.array([[0.0, 0.0], [400.0, 0.0], [400.0, 400.0],
                            [0.0, 400.0], [200.0, 200.0]])
        targets = rng.uniform(20.0, 380.0, (40, 2))
        d = np.array([exact_distances(anchors, t) for t in targets])
        d *= rng.uniform(0.9, 1.1, d.shape)
        ok = bias_compensated_rows(anchors, d, 150.0, 2.0)
        assert 0 < ok.sum() < len(ok)  # the batch mixes both outcomes

        fallback_rows = []
        wls_solve = solvers.wls_solve

        def spy(system, weights):
            fallback_rows.append(len(system.rhs))
            return wls_solve(system, weights)

        monkeypatch.setattr(solvers, "wls_solve", spy)
        kw = dict(sigmas_a=150.0, sigmas_p=2.0)
        batch = estimate_position("wls-bc", anchors, d, **kw)
        assert fallback_rows == [int((~ok).sum())]
        wls = estimate_position("wls", anchors, d, **kw)
        np.testing.assert_array_equal(batch[~ok], wls[~ok])
        assert not np.any(batch[ok] == wls[ok])
        assert_rows_match("wls-bc", anchors, d, **kw)

    def test_noiseless_batch_recovers_targets(self):
        rng = np.random.default_rng(11)
        anchors = random_scene_points(rng, 5)
        targets = rng.uniform(20.0, 380.0, (6, 2))
        d = np.array([exact_distances(anchors, t) for t in targets])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateWeightsWarning)
            for solver in SOLVER_NAMES:
                np.testing.assert_allclose(estimate_position(solver, anchors, d),
                                           targets, atol=1e-9, err_msg=solver)

    def test_one_warning_per_degenerate_row(self):
        rng = np.random.default_rng(13)
        anchors, d = noisy_batch(rng, 4, 7)
        with pytest.warns(DegenerateWeightsWarning) as caught:
            estimate_position("wls", anchors, d)
        assert len(caught) == 7


class TestAnchorWorkOnce:
    """estimate_position tests an anchor set's design for rank and for
    centering once, however many fixes and fallback rows use it, and builds
    its systems without validating them again; no solve tests a design. A
    call looks up its stds' noise terms once."""

    def count(self, monkeypatch):
        seen = {"rank": 0, "centered": 0, "validated": 0}
        svd, centered = np.linalg.svd, solvers._require_centered

        def svd_spy(a, *args, **kwargs):
            seen["rank"] += np.shape(a)[-2:] == (5, 2)
            return svd(a, *args, **kwargs)

        def centered_spy(design):
            seen["centered"] += 1
            centered(design)

        monkeypatch.setattr(np.linalg, "svd", svd_spy)
        monkeypatch.setattr(solvers, "_require_centered", centered_spy)
        monkeypatch.setattr(solvers.LinearSystem, "__post_init__",
                            lambda system: seen.update(validated=seen["validated"] + 1))
        solvers._anchor_terms.cache_clear()
        return seen

    @pytest.mark.parametrize("solver", ["lls", "wls", "wls-bc", "hyperbolic-w"])
    @pytest.mark.parametrize("rows", [None, 7])
    def test_once_per_anchor_set(self, solver, rows, monkeypatch):
        anchors, d = noisy_batch(np.random.default_rng(17), 5, rows or 1)
        d = d[0] if rows is None else d
        seen = self.count(monkeypatch)
        first = estimate_position(solver, anchors, d, sigmas_a=1.0, sigmas_p=2.0)
        assert seen == {"rank": 1, "centered": 1, "validated": 0}
        # the next fix against the same anchors does neither again
        estimate_position(solver, anchors, d * 1.01, sigmas_a=1.0, sigmas_p=2.0)
        assert seen == {"rank": 1, "centered": 1, "validated": 0}
        np.testing.assert_array_equal(
            estimate_position(solver, anchors, d, sigmas_a=1.0, sigmas_p=2.0), first)

    def test_fallback_rows_reuse_the_system(self, monkeypatch):
        rng = np.random.default_rng(5)
        anchors = np.array([[0.0, 0.0], [400.0, 0.0], [400.0, 400.0],
                            [0.0, 400.0], [200.0, 200.0]])
        d = np.array([exact_distances(anchors, t) for t in rng.uniform(20.0, 380.0, (40, 2))])
        d *= rng.uniform(0.9, 1.1, d.shape)
        ok = bias_compensated_rows(anchors, d, 150.0, 2.0)
        assert 0 < ok.sum() < len(ok)
        seen = self.count(monkeypatch)
        estimate_position("wls-bc", anchors, d, sigmas_a=150.0, sigmas_p=2.0)
        assert seen == {"rank": 1, "centered": 1, "validated": 0}

    @pytest.mark.parametrize("rows", [None, 7])
    def test_noise_terms_looked_up_once(self, rows, monkeypatch):
        anchors, d = noisy_batch(np.random.default_rng(29), 5, rows or 1)
        calls = {"_noise_terms": 0, "_key": 0}
        for name in calls:
            def spy(*args, _name=name, _real=getattr(solvers, name)):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(solvers, name, spy)
        estimate_position("wls-bc", anchors, d[0] if rows is None else d,
                          sigmas_a=1.0, sigmas_p=2.0)
        assert calls == {"_noise_terms": 1, "_key": 2}

    def test_solves_do_not_test_a_built_design(self, monkeypatch):
        anchors, d = noisy_batch(np.random.default_rng(23), 5, 6)
        system = solvers.linearize(anchors, d)
        weights = solvers.build_weights(anchors, d, 1.0, 2.0, 2.0)
        bias = solvers.build_bias_terms(anchors, d, 1.0, 2.0, 2.0, weights)
        seen = self.count(monkeypatch)
        solvers.lls_solve(system)
        solvers.wls_solve(system, weights)
        solvers.bias_compensated_solve(system, weights, bias)
        assert seen["rank"] == 0

    def test_far_anchors_solve_hyperbolic(self):
        # far anchors fail the pseudo-linear design's centering test, but the
        # hyperbolic system differences them against the first anchor
        anchors = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.3]]) + 1e9
        target = anchors[0] + [3.0, 4.0]
        np.testing.assert_allclose(estimate_position(
            "hyperbolic", anchors, exact_distances(anchors, target)), target, atol=1e-3)

    def test_kept_anchor_sets_are_checked_centered(self):
        # far anchors with a tiny spread: centering cancels, every call raises
        anchors = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.3]]) + 1e9
        for _ in range(2):
            with pytest.raises(ValueError, match="not centered"):
                estimate_position("wls-bc", anchors, [1.0, 2.0, 3.0], sigmas_p=2.0)


def cholesky_holds(matrix):
    try:
        np.linalg.cholesky(matrix)
        return True
    except np.linalg.LinAlgError:
        return False


class TestPositiveDefiniteTest:
    # |a11| >= 1e-6 keeps potrf's arithmetic finite. On a NaN pivot this
    # build's potrf reports success where reference LAPACK fails; the solver
    # treats it as a failure.
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(a11=st.one_of(st.just(0.0), st.floats(1e-6, 1e6), st.floats(-1e6, -1e-6)),
           a21=st.floats(-1e6, 1e6), skew=st.floats(-1e-9, 1e-9),
           rel=st.floats(-1e-12, 1e-12), near=st.booleans(),
           a22=st.floats(-1e6, 1e6))
    def test_agrees_with_cholesky(self, a11, a21, skew, rel, near, a22):
        if near and a11 != 0.0:
            # on the edge of singularity: a22 within a few ulps of a21^2/a11
            a22 = a21 * a21 / a11 * (1.0 + rel)
        # potrf reads the lower triangle; the upper one may differ slightly
        matrix = np.array([[a11, a21 * (1.0 + skew)], [a21, a22]])
        stack = np.stack([matrix, np.eye(2), -np.eye(2)])
        np.testing.assert_array_equal(solvers._positive_definite(stack),
                                      [cholesky_holds(matrix), True, False])

    def test_near_singular_grid(self):
        rng = np.random.default_rng(17)
        a11 = rng.uniform(1e-3, 1e4, 5000)
        a21 = rng.uniform(-1e4, 1e4, 5000)
        a22 = a21 * a21 / a11 * (1.0 + rng.integers(-4, 5, 5000) * 2.0 ** -52)
        stack = np.zeros((5000, 2, 2))
        stack[:, 0, 0], stack[:, 1, 0], stack[:, 0, 1], stack[:, 1, 1] = (
            a11, a21, a21, a22)
        expected = [cholesky_holds(m) for m in stack]
        assert 0 < sum(expected) < len(expected)
        np.testing.assert_array_equal(solvers._positive_definite(stack), expected)


ANCHORS = np.array([[0.0, 0.0], [400.0, 0.0], [420.0, 310.0], [10.0, 290.0],
                    [150.0, 120.0]])
ANCHOR_FLAG = ";".join(f"{x:g},{y:g}" for x, y in ANCHORS)
PARAMS = PathLossParams(p0=-40.0, d0=100.0, eta=2.0, sigma_shadow=2.0)


def mixed_mask_csv(tmp_path, n=60, seed=3):
    """RSSI rows with -200 sentinels in different columns, 3 to 5 in range."""
    rng = np.random.default_rng(seed)
    targets = rng.uniform(50.0, 350.0, (n, 2))
    d = np.array([exact_distances(ANCHORS, t) for t in targets])
    rssi = -40.0 - 20.0 * np.log10(d / 100.0) + rng.normal(0.0, 2.0, d.shape)
    for r in range(n):
        drop = rng.choice(5, size=r % 3, replace=False)
        rssi[r, drop] = -200.0
    path = tmp_path / "mixed.csv"
    cols = {f"RSSI{i + 1}": rssi[:, i] for i in range(5)}
    cols["X_Actual"], cols["Y_Actual"] = targets[:, 0], targets[:, 1]
    write_csv(cols, path)
    return path, rssi


class TestLocateAnchorMasks:
    @pytest.mark.parametrize("solver", SOLVER_NAMES)
    def test_output_equals_row_by_row(self, tmp_path, solver):
        path, rssi = mixed_mask_csv(tmp_path)
        assert len({tuple(row != -200.0) for row in rssi}) > 5
        out = tmp_path / "pred.csv"
        assert main(["locate", "--solver", solver, "--anchors", ANCHOR_FLAG,
                     "--sigma-p", "2", "--sigma-a", "1", "-i", str(path),
                     "-o", str(out)]) == 0
        cols = load_all_columns(out)
        got = np.column_stack([np.array(cols["X_Pred"], dtype=float),
                               np.array(cols["Y_Pred"], dtype=float)])
        for r, row in enumerate(rssi):
            mask = row != -200.0
            expected = estimate_position(
                solver, ANCHORS[mask], distance_from_rssi(row[mask], PARAMS),
                sigmas_a=1.0, sigmas_p=2.0, eta=2.0)
            np.testing.assert_array_equal(got[r], expected, err_msg=f"row {r}")

    def test_row_with_two_anchors_exits_4(self, tmp_path, capsys):
        path, rssi = mixed_mask_csv(tmp_path, n=12)
        rssi[7, [0, 2, 4]] = -200.0
        cols = {f"RSSI{i + 1}": rssi[:, i] for i in range(5)}
        cols["X_Actual"] = cols["Y_Actual"] = np.zeros(len(rssi))
        write_csv(cols, path)
        out = tmp_path / "pred.csv"
        assert main(["locate", "--solver", "lls", "--anchors", ANCHOR_FLAG,
                     "-i", str(path), "-o", str(out)]) == 4
        assert "row 9: fewer than 3 in-range anchors" in capsys.readouterr().err
        assert not out.exists()


class TestWeightFallbackCount:
    @pytest.mark.parametrize("solver", ["wls", "wls-bc"])
    def test_zero_noise_counts_every_row(self, tmp_path, solver):
        sim = tmp_path / "sim.csv"
        assert main(["simulate", "--anchors", ANCHOR_FLAG, "--positions", "6",
                     "--samples", "4", "--sigma-p", "0", "-o", str(sim)]) == 0
        report = tmp_path / "report.txt"
        assert main(["locate", "--solver", solver, "--anchors", ANCHOR_FLAG,
                     "--sigma-p", "0", "--sigma-a", "0", "-i", str(sim),
                     "-o", str(tmp_path / "pred.csv"),
                     "--report", str(report)]) == 0
        lines = dict(line.split("\t", 1) for line in
                     report.read_text().splitlines() if "\t" in line)
        assert lines["rows"] == "24"
        assert lines["weight_fallbacks"] == "24"
