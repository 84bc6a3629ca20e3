import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from _synth import (exact_distances, exact_weighted_position, pseudo_inverse_weights,
                    random_scene_points)
from rssiloc import solvers
from rssiloc.exceptions import (CollinearAnchors, DegenerateWeightsWarning,
                                NoIntersection, NonPositiveDistance,
                                NotPositiveDefinite, NumericalError,
                                RankDeficient, TooFewAnchors)
from rssiloc.solvers import (BiasTerms, DiagonalWeights, SOLVER_NAMES,
                             bias_compensated_solve, build_bias_terms,
                             build_weights, estimate_position,
                             hyperbolic_solve, linearize, lls_solve,
                             trilaterate, wls_solve)

GOLDEN = Path(__file__).parent / "data" / "solvers_golden.json"
TRIANGLE = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]])
TRIANGLE_D = np.array([math.sqrt(2), math.sqrt(10), math.sqrt(5)])  # target (1,1)


def _unhex(record) -> np.ndarray:
    return np.array([float.fromhex(v) for v in record["hex"]]).reshape(record["shape"])


def centering_projector(m):
    return np.eye(m) - np.full((m, m), 1.0 / m)


class TestTrilaterate:
    def test_forward_inverse_hand_case(self):
        anchors = np.array([[0.0, 0.0, 0.0], [4.0, 0.0, 0.0], [1.0, 3.0, 0.0]])
        radii = exact_distances(anchors, [1.0, 1.0, 0.0])
        np.testing.assert_allclose(radii, [math.sqrt(2), math.sqrt(10), 2.0])
        candidates = trilaterate(anchors, radii)
        np.testing.assert_allclose(candidates[0], [1.0, 1.0, 0.0], atol=1e-7)
        np.testing.assert_allclose(candidates[1], [1.0, 1.0, 0.0], atol=1e-7)

    def test_target_at_first_anchor(self):
        anchors = np.array([[0.0, 0.0, 0.0], [4.0, 0.0, 0.0], [1.0, 3.0, 0.0]])
        candidates = trilaterate(anchors, [0.0, 4.0, math.sqrt(10)])
        np.testing.assert_allclose(candidates[0], [0.0, 0.0, 0.0], atol=1e-9)

    def test_random_3d_targets_recovered(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            anchors = np.hstack([random_scene_points(rng, 3),
                                 rng.uniform(0, 50, (3, 1))])
            z_sign = rng.choice([-1.0, 1.0])
            target = np.array([rng.uniform(50, 350), rng.uniform(50, 350),
                               z_sign * rng.uniform(80, 300)])
            radii = np.sqrt(((anchors - target) ** 2).sum(axis=1))
            candidates = trilaterate(anchors, radii)
            err = min(np.linalg.norm(c - target) for c in candidates)
            assert err < 1e-9

    def test_mirror_candidates(self):
        anchors = np.array([[0.0, 0.0, 0.0], [400.0, 0.0, 0.0],
                            [100.0, 300.0, 0.0]])
        target = np.array([150.0, 100.0, 120.0])
        radii = np.sqrt(((anchors - target) ** 2).sum(axis=1))
        c_plus, c_minus = trilaterate(anchors, radii)
        np.testing.assert_allclose(c_plus[:2], c_minus[:2], atol=1e-9)
        assert c_plus[2] == pytest.approx(-c_minus[2], abs=1e-9)

    def test_collinear_anchors(self):
        anchors = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        with pytest.raises(CollinearAnchors):
            trilaterate(anchors, [1.0, 1.0, 1.0])

    def test_no_intersection(self):
        anchors = np.array([[0.0, 0.0, 0.0], [400.0, 0.0, 0.0],
                            [100.0, 300.0, 0.0]])
        with pytest.raises(NoIntersection):
            trilaterate(anchors, [10.0, 10.0, 10.0])

    def test_rigid_motion_equivariance(self):
        rng = np.random.default_rng(23)
        anchors = np.array([[0.0, 0.0, 0.0], [400.0, 0.0, 0.0],
                            [100.0, 300.0, 0.0]])
        target = np.array([150.0, 100.0, 0.0])
        radii = np.sqrt(((anchors - target) ** 2).sum(axis=1))
        base = trilaterate(anchors, radii)[0]
        theta = rng.uniform(0, 2 * math.pi)
        rot = np.array([[math.cos(theta), -math.sin(theta), 0.0],
                        [math.sin(theta), math.cos(theta), 0.0],
                        [0.0, 0.0, 1.0]])
        shift = rng.uniform(-500, 500, 3)
        moved = trilaterate(anchors @ rot.T + shift, radii)[0]
        np.testing.assert_allclose(moved, rot @ base + shift, atol=1e-9)


class TestLinearize:
    def test_hand_example(self):
        system = linearize(TRIANGLE, TRIANGLE_D)
        np.testing.assert_allclose(
            system.design,
            [[-4.0 / 3.0, -1.0], [8.0 / 3.0, -1.0], [-4.0 / 3.0, 2.0]])
        np.testing.assert_allclose(system.rhs,
                                   [-14.0 / 3.0, 10.0 / 3.0, 4.0 / 3.0])
        # the linearization identity 2 A s = b holds at the true target
        np.testing.assert_allclose(2.0 * system.design @ [1.0, 1.0],
                                   system.rhs)

    def test_design_is_translation_invariant(self):
        shift = np.array([57.0, -31.0])
        base = linearize(TRIANGLE, TRIANGLE_D)
        moved = linearize(TRIANGLE + shift, TRIANGLE_D)
        np.testing.assert_allclose(moved.design, base.design, atol=1e-12)

    def test_design_columns_sum_to_zero(self):
        rng = np.random.default_rng(31)
        pts = random_scene_points(rng, 5)
        d = rng.uniform(50, 500, 5)
        system = linearize(pts, d)
        np.testing.assert_allclose(system.design.sum(axis=0), 0.0, atol=1e-9)

    def test_too_few_anchors(self):
        with pytest.raises(TooFewAnchors):
            linearize(TRIANGLE[:2], TRIANGLE_D[:2])

    def test_collinear_system_raises_where_it_is_built(self):
        design = np.array([[-1.0, -1.0], [0.0, 0.0], [1.0, 1.0]])  # centered, rank 1
        with pytest.raises(RankDeficient, match="^" + re.escape(solvers.COLLINEAR) + "$"):
            solvers.LinearSystem(design, np.zeros(3))
        with pytest.raises(RankDeficient, match=re.escape(solvers.COLLINEAR)):
            linearize(design + 5.0, [1.0, 2.0, 3.0])

    def test_non_finite_rhs_is_a_numerical_error(self):
        # a range whose square overflows is the data's fault, not a config error
        with np.errstate(all="ignore"), pytest.raises(NumericalError, match="non-finite rhs"):
            linearize(TRIANGLE, [1.0, 2.0, 1e200])


class TestLls:
    def test_hand_example(self):
        assert lls_solve(linearize(TRIANGLE, TRIANGLE_D)) == pytest.approx(
            [1.0, 1.0])

    def test_noiseless_recovery(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            pts = random_scene_points(rng, int(rng.integers(3, 6)))
            target = rng.uniform(20, 380, 2)
            est = lls_solve(linearize(pts, exact_distances(pts, target)))
            assert np.linalg.norm(est - target) < 1e-9

    def test_collinear_rank_deficient(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        with pytest.raises(RankDeficient):
            lls_solve(linearize(pts, [1.0, 1.0, 1.0]))

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(43)
        pts = random_scene_points(rng, 4)
        target = rng.uniform(50, 350, 2)
        d = exact_distances(pts, target)
        base = lls_solve(linearize(pts, d))
        theta = rng.uniform(0, 2 * math.pi)
        rot = np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]])
        moved = lls_solve(linearize(pts @ rot.T, d))
        np.testing.assert_allclose(moved, rot @ base, atol=1e-9)


class TestWeights:
    def test_zero_noise_gives_an_unweighted_row(self):
        w = build_weights(TRIANGLE, TRIANGLE_D, 0.0, 0.0, 2.0)
        assert w.unweighted
        np.testing.assert_array_equal(w.w, 1.0)

    def test_equal_variances_give_scaled_projector(self):
        # equal distances and equal coordinate norms make the per-anchor
        # variances equal, v: W = P diag(v) P = v P, so W+ = P / v
        pts = np.array([[100.0, 0.0], [-50.0, 86.602540378443865],
                        [-50.0, -86.602540378443865]])
        d = np.full(3, 200.0)
        w = build_weights(pts, d, 3.0, 2.0, 2.0)
        sb2 = (2.0 * math.log(10.0) / 20.0) ** 2
        v = (4.0 * 9.0 * (9.0 + 100.0 ** 2)
             + 200.0 ** 4 * (math.exp(8 * sb2) - math.exp(4 * sb2)))
        np.testing.assert_allclose(w.w, 1.0 / v, rtol=1e-12)
        np.testing.assert_allclose(w.q_diag(), np.diag(centering_projector(3)) / v,
                                   rtol=1e-12)

    def test_symmetric_zero_row_sums(self):
        # W = P diag(var) P is symmetric with zero row sums, so W+ is
        # symmetric and annihilates the ones vector: the normal matrix is
        # symmetric, and a constant added to every rhs entry leaves
        # A^T W+ b unchanged
        rng = np.random.default_rng(53)
        pts = random_scene_points(rng, 5)
        d = rng.uniform(50, 500, 5)
        w = build_weights(pts, d, rng.uniform(0, 5, 5), rng.uniform(0, 4, 5), 2.0)
        assert not w.unweighted
        system = linearize(pts, d)
        normal, base = w.normal_equations(system.design, system.rhs)
        _, shifted = w.normal_equations(system.design, system.rhs + 1e4)
        assert normal[0, 1] == normal[1, 0]
        np.testing.assert_allclose(shifted, base, atol=1e-9 * np.abs(base).max())

    def test_non_positive_distance(self):
        with pytest.raises(NonPositiveDistance):
            build_weights(TRIANGLE, [1.0, 0.0, 1.0], 1.0, 1.0, 2.0)


class TestWls:
    def test_identity_weights_match_lls(self):
        system = linearize(TRIANGLE, TRIANGLE_D)
        est = wls_solve(system, DiagonalWeights(np.ones(3)))
        np.testing.assert_allclose(est, lls_solve(system), atol=1e-12)

    def test_exact_distances_any_valid_weights(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            pts = random_scene_points(rng, int(rng.integers(3, 6)))
            target = rng.uniform(20, 380, 2)
            d = exact_distances(pts, target)
            w = build_weights(pts, d, rng.uniform(0.5, 3), rng.uniform(0.5, 3),
                              2.0)
            est = wls_solve(linearize(pts, d), w)
            assert np.linalg.norm(est - target) < 1e-9

    def test_zero_weights_fall_back_with_warning(self):
        system = linearize(TRIANGLE, TRIANGLE_D)
        w = build_weights(TRIANGLE, TRIANGLE_D, 0.0, 0.0, 2.0)
        with pytest.warns(DegenerateWeightsWarning):
            est = wls_solve(system, w)
        np.testing.assert_allclose(est, lls_solve(system), atol=1e-12)

    def test_weight_scale_cancels(self):
        rng = np.random.default_rng(67)
        pts = random_scene_points(rng, 4)
        d = rng.uniform(100, 500, 4)
        system = linearize(pts, d)
        w = rng.uniform(0.1, 10.0, 4)
        base = wls_solve(system, DiagonalWeights(w))
        for c in (1e-6, 3.0, 1e8):
            scaled = wls_solve(system, DiagonalWeights(c * w))
            np.testing.assert_allclose(scaled, base, rtol=1e-9)

    def test_rank_deficient(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        with pytest.raises(RankDeficient):
            wls_solve(linearize(pts, [1.0, 1.0, 1.0]), DiagonalWeights(np.ones(3)))


class TestBiasTerms:
    def test_all_zero_without_noise(self):
        w = build_weights(TRIANGLE, TRIANGLE_D, 0.0, 0.0, 2.0)
        bias = build_bias_terms(TRIANGLE, TRIANGLE_D, 0.0, 0.0, 2.0, w)
        np.testing.assert_array_equal(bias.L, 0.0)
        np.testing.assert_array_equal(bias.t, 0.0)
        np.testing.assert_array_equal(bias.g, 0.0)

    def test_u_constant(self):
        w = build_weights(TRIANGLE, TRIANGLE_D, 0.0, 1.0, 2.5)
        bias = build_bias_terms(TRIANGLE, TRIANGLE_D, 0.0, 1.0, 2.5, w)
        assert bias.u == pytest.approx(math.log(10) / (5 * math.sqrt(2) * 2.5))

    def test_homoscedastic_t_reduces_to_distance_centering(self):
        # equal shadowing, no anchor noise: t_i = c * (mean(d^2) - d_i^2)
        rng = np.random.default_rng(71)
        pts = random_scene_points(rng, 5)
        d = rng.uniform(100, 500, 5)
        sigma_p, eta = 2.0, 2.0
        w = build_weights(pts, d, 0.0, sigma_p, eta)
        bias = build_bias_terms(pts, d, 0.0, sigma_p, eta, w)
        u = math.log(10) / (5 * math.sqrt(2) * eta)
        c = u ** 2 * sigma_p ** 2 + 0.5 * u ** 4 * sigma_p ** 4
        expected = c * ((d ** 2).mean() - d ** 2)
        np.testing.assert_allclose(bias.t, expected, rtol=1e-12)

    def test_four_term_expansion_matches_consolidated(self):
        # homoscedastic anchor noise: the four expectation terms of
        # E[(N1 - N2)' W+ (N1 - N2)] collapse to the consolidated diagonal
        # because the pseudo-inverse annihilates the ones vector
        rng = np.random.default_rng(73)
        m = 5
        pts = random_scene_points(rng, m)
        d = rng.uniform(100, 500, m)
        sigma_a = 3.0
        w = build_weights(pts, d, sigma_a, 2.0, 2.0)
        bias = build_bias_terms(pts, d, sigma_a, 2.0, 2.0, w)
        k = (pts ** 2).sum(axis=1)
        w_inv = pseudo_inverse_weights(solvers._rhs_variance(k, d, sigma_a, 2.0, 2.0))
        var = sigma_a ** 2
        ones = np.ones(m)
        t1 = var * np.trace(w_inv)                     # E[N1' W+ N1]
        t2 = (var / m) * ones @ w_inv @ ones           # E[N2' W+ N2]
        t3 = (var / m) * w_inv.sum()                   # E[N2' W+ N1]
        t4 = t3                                        # E[N1' W+ N2]
        np.testing.assert_allclose(bias.L[0, 0], t1 + t2 - t3 - t4, rtol=1e-12)
        np.testing.assert_allclose(bias.L[1, 1], t1 + t2 - t3 - t4, rtol=1e-12)

    def test_l_matches_monte_carlo_expectation(self):
        rng = np.random.default_rng(79)
        m = 5
        pts = random_scene_points(rng, m)
        d = rng.uniform(100, 500, m)
        sigma_a = 3.0
        w = build_weights(pts, d, sigma_a, 2.0, 2.0)
        bias = build_bias_terms(pts, d, sigma_a, 2.0, 2.0, w)
        k = (pts ** 2).sum(axis=1)
        w_inv = pseudo_inverse_weights(solvers._rhs_variance(k, d, sigma_a, 2.0, 2.0))
        proj = centering_projector(m)
        q = proj @ w_inv @ proj
        trials = 200_000
        noise = rng.normal(0.0, sigma_a, (trials, m))
        vals = np.einsum("ti,ij,tj->t", noise, q, noise)
        se = vals.std() / math.sqrt(trials)
        assert abs(vals.mean() - bias.L[0, 0]) < 4.0 * se

    def test_l_is_psd_diagonal(self):
        rng = np.random.default_rng(83)
        pts = random_scene_points(rng, 4)
        d = rng.uniform(100, 500, 4)
        w = build_weights(pts, d, 2.0, 1.0, 2.0)
        bias = build_bias_terms(pts, d, 2.0, 1.0, 2.0, w)
        assert bias.L[0, 1] == 0.0 and bias.L[1, 0] == 0.0
        assert bias.L[0, 0] >= 0.0 and bias.L[1, 1] >= 0.0


class TestBiasCompensatedSolve:
    def test_zero_bias_equals_wls_exactly(self):
        rng = np.random.default_rng(89)
        pts = random_scene_points(rng, 5)
        d = rng.uniform(100, 500, 5)
        system = linearize(pts, d)
        w = build_weights(pts, d, 1.0, 2.0, 2.0)
        zero = BiasTerms(L=np.zeros((2, 2)), t=np.zeros(5), g=np.zeros(2),
                         u=0.1)
        est = bias_compensated_solve(system, w, zero)
        np.testing.assert_array_equal(est, wls_solve(system, w))

    def test_noiseless_degeneration(self):
        system = linearize(TRIANGLE, TRIANGLE_D)
        w = build_weights(TRIANGLE, TRIANGLE_D, 0.0, 0.0, 2.0)
        bias = build_bias_terms(TRIANGLE, TRIANGLE_D, 0.0, 0.0, 2.0, w)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateWeightsWarning)
            est = bias_compensated_solve(system, w, bias)
            ref = wls_solve(system, w)
        np.testing.assert_array_equal(est, ref)
        np.testing.assert_allclose(est, [1.0, 1.0], atol=1e-12)

    def test_cross_term_changes_estimate_with_anchor_noise(self):
        rng = np.random.default_rng(97)
        pts = random_scene_points(rng, 5)
        target = rng.uniform(100, 300, 2)
        d = exact_distances(pts, target) * rng.uniform(0.9, 1.1, 5)
        w = build_weights(pts, d, 4.0, 2.0, 2.0)
        system = linearize(pts, d)
        bias = build_bias_terms(pts, d, 4.0, 2.0, 2.0, w)
        plain = bias_compensated_solve(system, w, bias)
        crossed = bias_compensated_solve(system, w, bias,
                                         include_cross_term=True)
        assert np.linalg.norm(plain - crossed) > 0.0

    def test_not_positive_definite_detected(self):
        system = linearize(TRIANGLE, TRIANGLE_D)
        w = DiagonalWeights(np.ones(3))
        huge = BiasTerms(L=np.eye(2) * 1e9, t=np.zeros(3), g=np.zeros(2),
                         u=0.1)
        with pytest.raises(NotPositiveDefinite,
                           match="^bias correction exceeds information in the weighted system$"):
            bias_compensated_solve(system, w, huge)

    @pytest.mark.parametrize("name", ["fallback-m3", "fallback-m4", "fallback-m6"])
    def test_wls_bc_fallback_does_not_go_through_the_raising_solve(self, monkeypatch, name):
        # estimate_position takes the rows to re-solve by wls from the
        # compensated solve's mask; the public function, which raises, is not
        # on its path, and the golden bits hold batched and for a lone row
        case = next(c for c in json.loads(GOLDEN.read_text())["cases"] if c["name"] == name)
        anchors, d, sigmas_a, sigmas_p = (_unhex(case[k]) for k in
                                          ("anchors", "distances", "sigmas_a", "sigmas_p"))

        def refuse(*args, **kwargs):
            raise AssertionError("estimate_position called bias_compensated_solve")

        monkeypatch.setattr(solvers, "bias_compensated_solve", refuse)
        for key, cross in (("wls-bc", False), ("wls-bc-cross", True)):
            want = _unhex(case["outputs"][key]["out"])
            kw = dict(sigmas_a=sigmas_a, sigmas_p=sigmas_p, eta=case["eta"],
                      include_cross_term=cross)
            assert estimate_position("wls-bc", anchors, d, **kw).tobytes() == want.tobytes()
            row = np.flatnonzero((want == _unhex(case["outputs"]["wls"]["out"])).all(axis=1))[0]
            assert estimate_position("wls-bc", anchors, d[row], **kw).tobytes() \
                == want[row].tobytes()

    def test_monte_carlo_bias_reduction(self):
        # shortened version of the acceptance run: compensated estimates
        # average closer to the truth than plain LLS
        import rssiloc as rl
        anchors = np.array([[0.0, 0.0], [400.0, 0.0], [400.0, 400.0],
                            [0.0, 400.0], [200.0, 200.0]])
        target = np.array([120.0, 260.0])
        params = rl.PathLossParams(p0=-40.0, d0=100.0, eta=2.0,
                                   sigma_shadow=2.0)
        scene = rl.Scene([rl.Anchor(id=f"A{i}", position=rl.Position(*a))
                          for i, a in enumerate(anchors)])
        noise = rl.NoiseSpec(sigma_a=0.0, sigma_p=2.0, seed=321)
        est_lls, est_bc = [], []
        for t in range(500):
            perturbed, meas = rl.measure_once(scene, rl.Position(*target),
                                              params, noise, t)
            d = rl.distance_from_rssi(meas.values(), params)
            system = linearize(perturbed, d)
            est_lls.append(lls_solve(system))
            w = build_weights(perturbed, d, 0.0, 2.0, 2.0)
            bias = build_bias_terms(perturbed, d, 0.0, 2.0, 2.0, w)
            est_bc.append(bias_compensated_solve(system, w, bias))
        bias_lls = np.linalg.norm(np.mean(est_lls, axis=0) - target)
        bias_bc = np.linalg.norm(np.mean(est_bc, axis=0) - target)
        assert bias_bc < bias_lls


class TestHyperbolic:
    def test_hand_example(self):
        est = hyperbolic_solve(TRIANGLE, TRIANGLE_D)
        np.testing.assert_allclose(est, [1.0, 1.0], atol=1e-12)

    def test_hand_example_internal_system(self):
        # frame anchored at the first beacon: rows [2 a_n, 2 b_n], rhs
        # a_n^2 + b_n^2 - d_n^2 + d_1^2
        rel = TRIANGLE[1:] - TRIANGLE[0]
        mat = 2.0 * rel
        rhs = (rel ** 2).sum(axis=1) - TRIANGLE_D[1:] ** 2 + TRIANGLE_D[0] ** 2
        np.testing.assert_allclose(mat, [[8.0, 0.0], [0.0, 6.0]])
        np.testing.assert_allclose(rhs, [8.0, 6.0])

    def test_translation_equivariance(self):
        shift = np.array([7.0, -2.0])
        est = hyperbolic_solve(TRIANGLE + shift, TRIANGLE_D)
        np.testing.assert_allclose(est, [8.0, -1.0], atol=1e-9)

    def test_zero_sigma_weighted_equals_unweighted(self):
        rng = np.random.default_rng(101)
        pts = random_scene_points(rng, 5)
        d = rng.uniform(100, 500, 5)
        plain = hyperbolic_solve(pts, d)
        floored = estimate_position("hyperbolic-w", pts, d, sigmas_p=0.0, eta=2.0)
        np.testing.assert_allclose(floored, plain, atol=1e-9)

    def test_weighted_differs_on_noisy_data(self):
        rng = np.random.default_rng(103)
        pts = random_scene_points(rng, 5)
        target = rng.uniform(100, 300, 2)
        d = exact_distances(pts, target) * rng.uniform(0.8, 1.2, 5)
        plain = hyperbolic_solve(pts, d)
        weighted = estimate_position("hyperbolic-w", pts, d, sigmas_p=2.0, eta=2.0)
        assert np.linalg.norm(plain - weighted) > 1e-9

    def test_noiseless_recovery_both_variants(self):
        rng = np.random.default_rng(107)
        for _ in range(50):
            pts = random_scene_points(rng, int(rng.integers(3, 6)))
            target = rng.uniform(20, 380, 2)
            d = exact_distances(pts, target)
            for solver in ("hyperbolic", "hyperbolic-w"):
                est = estimate_position(solver, pts, d, sigmas_p=2.0, eta=2.0)
                assert np.linalg.norm(est - target) < 1e-9

    def test_weighted_is_wls_with_exact_anchors(self):
        # Weighting the first-anchor differences by their lognormal
        # covariance gives the wls estimate at sigma_a = 0, bit for bit.
        rng = np.random.default_rng(109)
        pts = random_scene_points(rng, 6)
        d = rng.uniform(1.0, 500.0, (30, 6))
        for sigmas_p in (2.0, rng.uniform(0.5, 4.0, 6)):
            np.testing.assert_array_equal(
                estimate_position("hyperbolic-w", pts, d, sigmas_a=7.0,
                                  sigmas_p=sigmas_p, eta=2.5),
                estimate_position("wls", pts, d, sigmas_a=0.0,
                                  sigmas_p=float(np.mean(sigmas_p)), eta=2.5))

    @pytest.mark.parametrize("solver", ["wls", "hyperbolic-w"])
    @pytest.mark.parametrize("eta", [0.0, -1.0])
    @pytest.mark.parametrize("sigma_p", [0.0, 2.0])
    def test_weighted_solvers_reject_non_positive_eta(self, solver, eta, sigma_p):
        with pytest.raises(ValueError, match="eta"):
            estimate_position(solver, TRIANGLE, TRIANGLE_D, sigmas_p=sigma_p, eta=eta)

    def test_collinear_rank_deficient(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        with pytest.raises(RankDeficient):
            hyperbolic_solve(pts, [1.0, 1.0, 1.0])

    def test_too_few_anchors(self):
        with pytest.raises(TooFewAnchors):
            hyperbolic_solve(TRIANGLE[:2], TRIANGLE_D[:2])


class TestEstimatePosition:
    def test_unknown_solver(self):
        with pytest.raises(ValueError):
            estimate_position("bogus", TRIANGLE, TRIANGLE_D)

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(3, 8),
           sigma_p=st.floats(0.5, 4.0), sigma_a=st.floats(0.0, 5.0))
    def test_all_solvers_recover_noiseless(self, seed, m, sigma_p, sigma_a):
        rng = np.random.default_rng(seed)
        # the first three anchors span a triangle, for trilateration
        pts = np.vstack([random_scene_points(rng, 3), rng.uniform(0, 400, (m - 3, 2))])
        target = rng.uniform(20, 380, 2)
        d = exact_distances(pts, target)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateWeightsWarning)
            for name in SOLVER_NAMES:
                est = estimate_position(name, pts, d)
                assert np.linalg.norm(est - target) < 1e-9, name
        # with no residual, any positive weights give the target too
        for name in ("wls", "hyperbolic-w"):
            est = estimate_position(name, pts, d, sigmas_a=sigma_a, sigmas_p=sigma_p)
            assert np.linalg.norm(est - target) < 1e-9, name

    def test_translation_equivariance_all_solvers(self):
        # noisy ranges for the least-squares family; exact ones for
        # trilateration, whose spheres must still intersect
        rng = np.random.default_rng(113)
        pts = random_scene_points(rng, 5)
        target = rng.uniform(100, 300, 2)
        exact = exact_distances(pts, target)
        noisy = exact * rng.uniform(0.95, 1.05, 5)
        shift = np.array([123.0, -456.0])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateWeightsWarning)
            for name in SOLVER_NAMES:
                d = exact if name == "trilateration" else noisy
                base = estimate_position(name, pts, d, sigmas_p=2.0)
                moved = estimate_position(name, pts + shift, d, sigmas_p=2.0)
                np.testing.assert_allclose(moved, base + shift, atol=1e-6,
                                           err_msg=name)


def exact_estimates(anchors, d, sigma_a, sigma_p):
    """Exact wls and wls-bc estimates from the solver's float inputs, and
    the exact compensated normal matrix as floats."""
    system = linearize(anchors, d)
    var = solvers._rhs_variance((anchors ** 2).sum(axis=1), d, sigma_a, sigma_p, 2.0)
    t = build_bias_terms(anchors, d, sigma_a, sigma_p, 2.0, DiagonalWeights(1.0 / var)).t
    wls, _ = exact_weighted_position(system.design, system.rhs, var)
    bc, normal = exact_weighted_position(system.design, system.rhs, var, t,
                                         np.full(len(anchors), sigma_a) ** 2)
    (n00, n01), (n10, n11) = normal
    if not (n00 > 0 and n00 * n11 - n01 * n10 > 0):
        bc = wls  # wls-bc falls back to wls
    return wls, bc, np.array(normal, dtype=float)


def assert_near_exact(anchors, d, sigma_a, sigma_p, wls, bc, rtol=1e-9):
    kw = dict(sigmas_a=sigma_a, sigmas_p=sigma_p, eta=2.0)
    for name, want in (("wls", wls), ("wls-bc", bc)):
        got = estimate_position(name, anchors, d, **kw)
        assert np.linalg.norm(got - want) <= rtol * np.linalg.norm(want), name


class TestDiagonalWeights:
    """wls and wls-bc in closed form against exact rational arithmetic."""

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(3, 8),
           near=st.floats(0.01, 0.3), sigma_p=st.floats(0.5, 4.0),
           sigma_a=st.just(0.0) | st.floats(1.0, 400.0))
    def test_wide_variance_spread_matches_exact(self, seed, m, near, sigma_p, sigma_a):
        rng = np.random.default_rng(seed)
        anchors = random_scene_points(rng, m, extent=800.0, min_spread=80.0)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        target = anchors[0] + near * np.array([math.cos(angle), math.sin(angle)])
        d = exact_distances(anchors, target) * rng.uniform(0.9, 1.1, m)
        # three decades of distance: variances spread by >= 1e12 at sigma_a = 0
        assume(d.max() / d.min() >= 1e3)
        wls, bc, normal = exact_estimates(anchors, d, sigma_a, sigma_p)
        assume(np.linalg.cond(normal) < 1e6)  # clear of the fallback's edge
        assert_near_exact(anchors, d, sigma_a, sigma_p, wls, bc)
        if sigma_a == 0.0:  # hyperbolic-w is wls with exact anchors
            got = estimate_position("hyperbolic-w", anchors, d, sigmas_p=sigma_p, eta=2.0)
            assert np.linalg.norm(got - wls) <= 1e-9 * np.linalg.norm(wls)

    def test_ranging_row_with_a_near_anchor(self):
        # Row 1126 of the ranging benchmark chain at seed 2: the target is
        # 1.5 cm from the fourth anchor and the rhs variances span 3.8e11.
        # The one-pass normal matrix sum(w a a^T) - (sum w a)(sum w a)^T / sum(w)
        # is off by ~8e-4 cm here; the weighted-centred sums are not.
        anchors = np.array([[26.1, 21.2], [796.2, 6.1], [798.2, 582.4],
                            [27.4, 579.7], [410.5, 322.2]])
        d = np.array([732.4905069431685, 1183.5456071228882, 952.0707219278289,
                      1.5115404543224786, 540.2763073599524])
        wls, bc, _ = exact_estimates(anchors, d, 0.0, 2.0)
        assert_near_exact(anchors, d, 0.0, 2.0, wls, bc)

    def test_dominant_weight_keeps_its_bias_term(self):
        # 100 m anchors, 1 cm anchor noise and a target 0.5 cm from the
        # first anchor: its weight is 1e15 times the others'. Its diag(Q)
        # entry needs sum_{j != i} w_j summed directly; sum(w) - w_i
        # cancels and moves the estimate by ~5e-10 of its size.
        anchors = np.array([[0.0, 0.0], [1e4, 0.0], [1e4, 1e4], [0.0, 1e4],
                            [5e3, 4e3]])
        d = exact_distances(anchors, [0.3, 0.4]) * [1.05, 0.95, 1.02, 0.98, 1.01]
        wls, bc, normal = exact_estimates(anchors, d, 1.0, 2.0)
        assert np.linalg.cond(normal) < 10.0 and bc is not wls
        assert_near_exact(anchors, d, 1.0, 2.0, wls, bc, rtol=1e-12)

    def test_rows_without_usable_variances_are_unweighted(self):
        rng = np.random.default_rng(71)
        anchors = random_scene_points(rng, 5)
        targets = rng.uniform(20.0, 380.0, (6, 2))
        d = np.array([exact_distances(anchors, t) for t in targets])
        d *= rng.uniform(0.9, 1.1, d.shape)
        d[2, 1] = 1e-90  # d^4 underflows: one zero variance
        d[4] = 1e-90  # all variances zero
        kw = dict(sigmas_a=0.0, sigmas_p=2.0, eta=2.0)
        for name in ("wls", "wls-bc"):
            with pytest.warns(DegenerateWeightsWarning) as caught:
                batch = estimate_position(name, anchors, d, **kw)
            assert len(caught) == 2, name  # one per unweighted row
            for i, row in enumerate(d):
                weights = build_weights(anchors, row, 0.0, 2.0, 2.0)
                assert weights.unweighted == (i in (2, 4))
                system = linearize(anchors, row)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", DegenerateWeightsWarning)
                    if name == "wls":
                        want = wls_solve(system, weights)
                    else:
                        bias = build_bias_terms(anchors, row, 0.0, 2.0, 2.0, weights)
                        want = bias_compensated_solve(system, weights, bias)
                np.testing.assert_array_equal(batch[i], want, err_msg=f"{name} row {i}")
                if name == "wls" and i in (2, 4):  # W+ = P: ordinary LS
                    np.testing.assert_allclose(want, lls_solve(system), rtol=1e-12)

    def test_closed_form_equals_pseudo_inverse_on_plain_rows(self):
        rng = np.random.default_rng(73)
        anchors = random_scene_points(rng, 6)
        d = rng.uniform(50.0, 500.0, (20, 6))
        var = solvers._rhs_variance((anchors ** 2).sum(axis=1), d, 1.5, 2.0, 2.0)
        system = linearize(anchors, d)
        closed = build_weights(anchors, d, 1.5, 2.0, 2.0)
        assert not closed.unweighted.any()
        w_inv = pseudo_inverse_weights(var)
        proj = centering_projector(6)
        np.testing.assert_allclose(
            closed.q_diag(), np.diagonal(proj @ w_inv @ proj, axis1=-2, axis2=-1),
            rtol=1e-9)
        aw = system.design.T @ w_inv
        want = aw @ system.design, (aw @ system.rhs[..., None])[..., 0]
        for got, ref in zip(closed.normal_equations(system.design, system.rhs), want):
            np.testing.assert_allclose(got, ref, rtol=1e-9)
