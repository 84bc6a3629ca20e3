import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rssiloc
from rssiloc.core import Anchor, PathLossParams, Position, Scene
from rssiloc.exceptions import NonPositiveDistance
from rssiloc.radio import (NoiseSpec, distance_from_rssi, measure_once, measure_targets,
                           rssi_from_distance, synthesize_measurements)

FREE_SPACE = PathLossParams(p0=-40.0, d0=100.0, eta=2.0, sigma_shadow=0.0)


def triangle_scene(sigma_a=0.0, sigma_p=0.0):
    pts = [(0.0, 0.0), (400.0, 0.0), (200.0, 300.0)]
    return Scene([Anchor(id=f"A{i}", position=Position(x, y),
                         sigma_a=sigma_a, sigma_p=sigma_p)
                  for i, (x, y) in enumerate(pts)])


class TestMeanModel:
    def test_reference_distance(self):
        assert rssi_from_distance(100.0, FREE_SPACE) == -40.0

    def test_one_decade(self):
        assert rssi_from_distance(1000.0, FREE_SPACE) == pytest.approx(-60.0)

    def test_two_decades(self):
        assert rssi_from_distance(10000.0, FREE_SPACE) == pytest.approx(-80.0)

    def test_rejects_non_positive_distance(self):
        with pytest.raises(NonPositiveDistance):
            rssi_from_distance(0.0, FREE_SPACE)

    def test_inverse_examples(self):
        assert distance_from_rssi(-40.0, FREE_SPACE) == pytest.approx(100.0)
        assert distance_from_rssi(-60.0, FREE_SPACE) == pytest.approx(1000.0)

    def test_roundtrip_370cm(self):
        params = PathLossParams(p0=-40.0, d0=100.0, eta=2.2, sigma_shadow=0.0)
        d = 370.0
        back = distance_from_rssi(rssi_from_distance(d, params), params)
        assert abs(back - d) < 1e-9

    def test_exact_inverses_random_params(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            params = PathLossParams(p0=rng.uniform(-70, -20),
                                    d0=rng.uniform(50, 200),
                                    eta=rng.uniform(1.5, 4.0),
                                    sigma_shadow=0.0)
            d = rng.uniform(10, 5000)
            back = distance_from_rssi(rssi_from_distance(d, params), params)
            assert back == pytest.approx(d, rel=1e-12)

    def test_strictly_decreasing(self):
        d = np.linspace(10.0, 5000.0, 400)
        rssi = rssi_from_distance(d, FREE_SPACE)
        assert np.all(np.diff(rssi) < 0)
        r = np.linspace(-90.0, -30.0, 400)
        dist = distance_from_rssi(r, FREE_SPACE)
        assert np.all(np.diff(dist) < 0)


class TestSynthesis:
    def test_zero_noise_matches_mean_model(self):
        scene = triangle_scene()
        target = Position(120.0, 90.0)
        noise = NoiseSpec(sigma_a=0.0, sigma_p=0.0, seed=1)
        trials = synthesize_measurements(scene, target, FREE_SPACE, noise, 5)
        d = np.sqrt(((scene.anchor_positions() - target.as_array()) ** 2).sum(axis=1))
        expected = rssi_from_distance(d, FREE_SPACE)
        for perturbed, measurement in trials:
            np.testing.assert_array_equal(perturbed, scene.anchor_positions())
            np.testing.assert_allclose(measurement.values(), expected)

    def test_sample_mean_tracks_model(self):
        # zero-mean shadowing: the empirical mean stays within 3 SE
        scene = triangle_scene()
        target = Position(150.0, 100.0)
        sigma = 2.0
        n = 100_000
        noise = NoiseSpec(sigma_a=0.0, sigma_p=sigma, seed=9)
        trials = synthesize_measurements(scene, target, FREE_SPACE, noise, n)
        values = np.array([m.values() for _, m in trials])
        d = np.sqrt(((scene.anchor_positions() - target.as_array()) ** 2).sum(axis=1))
        expected = rssi_from_distance(d, FREE_SPACE)
        bound = 3.0 * sigma / math.sqrt(n)
        assert np.all(np.abs(values.mean(axis=0) - expected) < bound)

    def test_same_seed_bit_identical(self):
        scene = triangle_scene()
        target = Position(100.0, 200.0)
        noise = NoiseSpec(sigma_a=1.0, sigma_p=2.0, seed=77)
        a = synthesize_measurements(scene, target, FREE_SPACE, noise, 10)
        b = synthesize_measurements(scene, target, FREE_SPACE, noise, 10)
        for (pa, ma), (pb, mb) in zip(a, b):
            np.testing.assert_array_equal(pa, pb)
            assert ma.rssi == mb.rssi

    def test_trials_are_order_independent(self):
        scene = triangle_scene()
        target = Position(100.0, 200.0)
        noise = NoiseSpec(sigma_a=1.0, sigma_p=2.0, seed=5)
        batch = synthesize_measurements(scene, target, FREE_SPACE, noise, 8)
        solo = measure_once(scene, target, FREE_SPACE, noise, trial=5)
        np.testing.assert_array_equal(batch[5][0], solo[0])
        assert batch[5][1].rssi == solo[1].rssi

    def test_trials_must_be_positive(self):
        scene = triangle_scene()
        with pytest.raises(ValueError):
            synthesize_measurements(scene, Position(1, 1), FREE_SPACE,
                                    NoiseSpec(), 0)

    def test_noise_spec_rejects_negative(self):
        with pytest.raises(ValueError):
            NoiseSpec(sigma_a=-1.0)


class TestSquaredDistanceInflation:
    def test_mean_of_squared_estimates(self):
        # lognormal second moment: E[d^2] = d^2 * exp(u^2 sigma^2),
        # u = ln(10) / (5 sqrt(2) eta)
        eta, sigma = 2.2, 3.0
        params = PathLossParams(p0=-40.0, d0=100.0, eta=eta, sigma_shadow=sigma)
        d = 500.0
        u = math.log(10.0) / (5.0 * math.sqrt(2.0) * eta)
        theory = d * d * math.exp(u * u * sigma * sigma)

        rng = np.random.default_rng(5)
        n = 400_000
        rssi = rssi_from_distance(d, params) + rng.normal(0.0, sigma, n)
        d2 = distance_from_rssi(rssi, params) ** 2
        se = d2.std() / math.sqrt(n)
        assert abs(d2.mean() - theory) < 4.0 * se


def reference_observation(scene, target, params, noise, trial):
    """One trial as drawn one target and one trial at a time: numpy's own
    SeedSequence substream, then the anchor-coordinate noise (M, 2), then the
    shadowing (M,)."""
    rng = np.random.default_rng(np.random.SeedSequence(noise.seed, spawn_key=(trial,)))
    true_pos = scene.anchor_positions()
    perturbed = true_pos + rng.normal(0.0, noise.sigma_a, size=true_pos.shape)
    d = np.sqrt(((true_pos - target.as_array()) ** 2).sum(axis=1))
    return perturbed, rssi_from_distance(d, params) + rng.normal(0.0, noise.sigma_p, size=len(d))


SEEDS = st.integers(0, 2 ** 31) | st.sampled_from([0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 7,
                                                   2 ** 128 - 1, 2 ** 128, 2 ** 200 + 3])
coords = st.floats(-2000.0, 2000.0)


@st.composite
def simulations(draw):
    dx, dy = draw(coords), draw(coords)  # a shifted triangle spans the plane
    anchors = [(dx, dy), (dx + 400.0, dy), (dx + 200.0, dy + 300.0)]
    anchors += draw(st.lists(st.tuples(coords, coords), max_size=3))
    scene = Scene([Anchor(id=f"A{i}", position=Position(x, y))
                   for i, (x, y) in enumerate(anchors)])
    targets = draw(st.lists(st.tuples(coords, coords), min_size=0, max_size=4).filter(
        lambda ts: not set(ts) & set(anchors)))
    params = PathLossParams(p0=draw(st.floats(-80.0, 0.0)), d0=draw(st.floats(1.0, 200.0)),
                            eta=draw(st.floats(1.5, 5.0)))
    noise = NoiseSpec(sigma_a=draw(st.floats(0.0, 50.0)), sigma_p=draw(st.floats(0.0, 8.0)),
                      seed=draw(SEEDS))
    return scene, targets, params, noise, draw(st.integers(1, 4))


class TestBatchedSimulation:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(sim=simulations())
    def test_rows_equal_measure_once_and_the_reference(self, sim):
        scene, targets, params, noise, samples = sim
        rows = measure_targets(scene, targets, params, noise, samples)
        assert rows.shape == (len(targets) * samples, len(scene.anchors))
        for t, row in enumerate(rows):
            target = Position(*targets[t // samples])
            perturbed, measurement = measure_once(scene, target, params, noise, trial=t)
            assert row.tobytes() == measurement.values().tobytes()
            ref_perturbed, ref_rssi = reference_observation(scene, target, params, noise, t)
            assert perturbed.tobytes() == ref_perturbed.tobytes()
            assert row.tobytes() == ref_rssi.tobytes()

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(sim=simulations(), trials=st.integers(1, 12))
    def test_synthesized_trials_equal_measure_once(self, sim, trials):
        scene, targets, params, noise, _ = sim
        target = Position(*(targets or [(1.5, -2.5)])[0])
        for t, (perturbed, measurement) in enumerate(
                synthesize_measurements(scene, target, params, noise, trials)):
            once = measure_once(scene, target, params, noise, trial=t)
            assert perturbed.tobytes() == once[0].tobytes()
            assert measurement == once[1]

    @pytest.mark.parametrize("seed, trial", [(-1, 0), (1, -1)])
    def test_negative_seed_or_trial_raises(self, seed, trial):
        noise = NoiseSpec(sigma_a=1.0, sigma_p=2.0, seed=seed)
        with pytest.raises(ValueError):
            measure_once(triangle_scene(), Position(1.0, 2.0), FREE_SPACE, noise, trial)

    @pytest.mark.parametrize("seed, trial", [(1, 2 ** 32), (1, 2 ** 70 + 1), ([1, 2], 0),
                                             ([1, 2], 7), ((2 ** 64, 3), 2 ** 32)])
    def test_any_seed_sequence_entropy_and_trial(self, seed, trial):
        # the seed and trial rules are numpy's own: any SeedSequence entropy,
        # trials of any non-negative size
        scene, target = triangle_scene(), Position(120.0, 90.0)
        noise = NoiseSpec(sigma_a=3.0, sigma_p=2.0, seed=seed)
        perturbed, measurement = measure_once(scene, target, FREE_SPACE, noise, trial)
        ref_perturbed, ref_rssi = reference_observation(scene, target, FREE_SPACE, noise, trial)
        assert perturbed.tobytes() == ref_perturbed.tobytes()
        assert measurement.values().tobytes() == ref_rssi.tobytes()


def test_importing_the_cli_leaves_numpy_random_unloaded():
    # numpy.random costs every CLI process ~16 ms and ~5 MB; only commands
    # that draw random numbers should load it
    code = "import sys, rssiloc.cli; print('numpy.random' in sys.modules)"
    src = os.path.dirname(os.path.dirname(rssiloc.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "False"
