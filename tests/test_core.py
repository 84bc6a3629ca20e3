import ast
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

import rssiloc
from rssiloc.core import (Anchor, MeasurementSet, PathLossParams, Position,
                          Scene, _unchecked, meters, position_error, validate_scene)
from rssiloc.exceptions import DegenerateGeometry, TooFewAnchors


def make_scene(points, **anchor_kw):
    anchors = [Anchor(id=f"A{i}", position=Position(x, y), **anchor_kw)
               for i, (x, y) in enumerate(points)]
    return Scene(anchors)


class TestValidateScene:
    def test_triangle_is_valid(self):
        scene = make_scene([(0, 0), (4, 0), (0, 3)])
        assert validate_scene(scene) is scene

    def test_collinear_rejected(self):
        with pytest.raises(DegenerateGeometry):
            validate_scene(make_scene([(0, 0), (1, 0), (2, 0)]))

    def test_two_anchors_rejected(self):
        with pytest.raises(TooFewAnchors):
            validate_scene(make_scene([(0, 0), (4, 0)]))

    def test_duplicate_ids_rejected(self):
        anchors = [Anchor(id="A", position=Position(0, 0)),
                   Anchor(id="A", position=Position(4, 0)),
                   Anchor(id="B", position=Position(0, 3))]
        with pytest.raises(ValueError):
            validate_scene(Scene(anchors))

    def test_accepts_any_positive_area_triangle(self):
        rng = np.random.default_rng(7)
        accepted = 0
        for _ in range(200):
            pts = rng.uniform(0, 1000, (3, 2))
            v1, v2 = pts[1] - pts[0], pts[2] - pts[0]
            area = 0.5 * abs(v1[0] * v2[1] - v1[1] * v2[0])
            if area < 1e3:  # keep clearly non-degenerate triangles
                continue
            validate_scene(make_scene(pts))
            accepted += 1
        assert accepted > 50

    def test_near_collinear_rejected_relative_to_diameter(self):
        # spread 1e5 cm wide but only 1e-3 cm thick: far below tolerance
        scene = make_scene([(0, 0), (1e5, 5e-4), (2e5, 1e-3)])
        with pytest.raises(DegenerateGeometry):
            validate_scene(scene)


class TestPositionError:
    def test_axis_aligned(self):
        assert position_error(Position(0.5, 0), Position(0.5, 0.5)) == 0.5

    def test_three_four_five(self):
        assert position_error(Position(3, 4), Position(0, 0)) == 5.0

    def test_identity(self):
        p = Position(12.5, -3.25)
        assert position_error(p, p) == 0.0

    def test_metric_properties(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            a, b, c = (Position(*rng.uniform(-500, 500, 2)) for _ in range(3))
            dab = position_error(a, b)
            assert dab == position_error(b, a)
            assert dab >= 0.0
            assert position_error(a, c) <= dab + position_error(b, c) + 1e-9

    def test_zero_iff_equal(self):
        a = Position(1.0, 2.0)
        b = Position(1.0, 2.0 + 1e-9)
        assert position_error(a, b) > 0.0


class TestTypes:
    def test_position_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Position(float("nan"), 0.0)

    def test_anchor_rejects_negative_noise(self):
        with pytest.raises(ValueError):
            Anchor(id="A", position=Position(0, 0), sigma_a=-1.0)

    def test_path_loss_invariants(self):
        with pytest.raises(ValueError):
            PathLossParams(eta=0.0)
        with pytest.raises(ValueError):
            PathLossParams(d0=-1.0)

    def test_path_loss_offset_form(self):
        params = PathLossParams.from_offset_form(n=2.0, a=40.0)
        assert params.p0 == -40.0
        assert params.d0 == 100.0

    def test_meters(self):
        assert meters(3.7) == 370.0
        assert Position.from_meters(1.0, 2.0) == Position(100.0, 200.0)

    def test_measurement_set_mask(self):
        ms = MeasurementSet([-60.0, None, -70.0])
        assert ms.mask().tolist() == [True, False, True]
        assert ms.values().tolist() == [-60.0, -70.0]

    def test_scene_bounds_default_to_anchor_bbox(self):
        scene = make_scene([(0, 0), (4, 0), (0, 3)])
        assert scene.bounds == (0.0, 0.0, 4.0, 3.0)
        assert math.isclose(scene.diameter(), 5.0)

    def test_scene_of_fewer_than_two_anchors_has_zero_diameter(self):
        assert make_scene([]).diameter() == 0.0
        assert make_scene([(4, 3)]).diameter() == 0.0

    def test_position_as_array_in_three_dimensions(self):
        # a position keeps its z, but its array and its scene's are the 2-D x, y
        position = Position(1.0, 2.0, 3.0)
        assert position.z == 3.0 and position.as_array().tolist() == [1.0, 2.0]
        scene = Scene([Anchor("A1", position), Anchor("A2", Position(4.0, 3.0, -1.0))])
        assert scene.anchor_positions().tolist() == [[1.0, 2.0], [4.0, 3.0]]


class TestUnchecked:
    def test_builds_without_the_validating_constructor(self):
        with pytest.raises(ValueError):
            Position(math.nan, 0.0)
        position = _unchecked(Position, {"x": math.nan, "y": 0.0, "z": 0.0})
        assert type(position) is Position and math.isnan(position.x)
        with pytest.raises(dataclasses.FrozenInstanceError):
            position.x = 1.0
        assert _unchecked(Position, [("x", 1.0), ("y", 2.0), ("z", 3.0)]) == Position(1.0, 2.0, 3.0)

    def test_object_new_only_in_the_helper(self):
        # every value built from parts already checked is built by core._unchecked
        sites = []
        for path in sorted(Path(rssiloc.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                for child in ast.iter_child_nodes(node):
                    child.parent = node
            for node in ast.walk(tree):
                if (isinstance(node, ast.Attribute) and node.attr == "__new__"
                        and isinstance(node.value, ast.Name) and node.value.id == "object"):
                    scope = node
                    while scope is not tree and not isinstance(scope, ast.FunctionDef):
                        scope = scope.parent
                    sites.append((path.stem, getattr(scope, "name", None)))
        assert sites == [("core", "_unchecked")]
