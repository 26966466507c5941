"""Geometric constants and the tameness verdicts."""

import math

import pytest

from _helpers import BS2
from metabelian.elements import Ambient, parse_element
from metabelian.errors import TamenessViolation
from metabelian.geometry import (geometry_constants, presentation_constants,
                                 tameness_check)
from metabelian.presentation import TamenessDatum

RING1 = Ambient(("t",), (0,), 1, None, laurent=True)
RING2 = Ambient(("s", "t"), (0, 0), 1, None, laurent=True)


def datum1(*texts, co=()):
    return TamenessDatum(
        centralizer=tuple(parse_element(x, RING1) for x in texts),
        co_centralizer=tuple(parse_element(x, RING1) for x in co))


class TestRankOne:
    def test_bs_constants(self):
        report = presentation_constants(BS2)
        assert report.C == 1 and report.D == 1
        assert report.r0 == 0.5
        assert report.R is None  # 4kC - 4 = 0
        assert report.method == "exact"
        assert report.epsilon(1.0) == pytest.approx(0.5)

    def test_epsilon_positive_beyond_r0(self):
        report = presentation_constants(BS2)
        for delta in (0.01, 0.5, 3.0):
            assert report.epsilon(report.r0 + delta) > 0

    def test_wider_supports(self):
        datum = datum1("3*t^2", co=("3*t^-2",))
        report = geometry_constants(datum, 1)
        assert report.C == 2 and report.D == 2

    def test_origin_support_violates(self):
        with pytest.raises(TamenessViolation):
            geometry_constants(datum1("3"), 1)

    def test_one_sided_violates(self):
        with pytest.raises(TamenessViolation) as err:
            geometry_constants(datum1("t - 1"), 1)
        assert err.value.direction is not None

    def test_scaling_doubles(self):
        base = presentation_constants(BS2)
        squared = TamenessDatum(
            centralizer=tuple(e.mul_ring(e) for e in BS2.tameness.centralizer),
            co_centralizer=tuple(e.mul_ring(e)
                                 for e in BS2.tameness.co_centralizer))
        report = geometry_constants(squared, 1)
        assert report.C == 2 * base.C and report.D == 2 * base.D


class TestTameness:
    def test_bs_is_tame(self):
        assert tameness_check(BS2.tameness, 1) == (True, {"directions": 2,
                                                          "min_value": 1})

    def test_half_line_fails(self):
        verdict, info = tameness_check(datum1("t - 1"), 1)
        assert verdict is False and info["min_value"] <= 0

    def test_empty_datum(self):
        empty = TamenessDatum((), ())
        for k in (1, 2):
            assert tameness_check(empty, k) == (False, {"directions": 0,
                                                        "min_value": None})

    def test_rank_two_grid(self):
        datum = TamenessDatum(
            centralizer=tuple(parse_element(x, RING2)
                              for x in ("s*t", "s*t^-1")),
            co_centralizer=tuple(parse_element(x, RING2)
                                 for x in ("s^-1*t", "s^-1*t^-1")))
        verdict, info = tameness_check(datum, 2)
        assert verdict is True
        assert info["directions"] >= 1000
        assert info["min_value"] > 0


class TestRankTwoSampling:
    def test_sampled_constants_lower_bound(self):
        # supports at the four diagonal corners: f(u) = |u1| + |u2| on the
        # circle, so C = sqrt(2) exactly; the sampled bound sits below it.
        datum = TamenessDatum(
            centralizer=tuple(parse_element(x, RING2)
                              for x in ("s*t", "s*t^-1")),
            co_centralizer=tuple(parse_element(x, RING2)
                                 for x in ("s^-1*t", "s^-1*t^-1")))
        report = geometry_constants(datum, 2)
        assert report.method.startswith("sampled")
        assert 0 < report.C <= math.sqrt(2) + 1e-9
        assert report.C >= 0.9  # Lipschitz correction is not wildly loose
        assert report.D == pytest.approx(math.sqrt(2))
        assert report.R is not None

    def test_rank_two_agrees_with_exact_on_axis_symmetric_data(self):
        # same data, rank-1 slice: the exact path for the datum restricted
        # to one coordinate matches the k=1 computation
        datum = datum1("2*t", co=("2*t^-1",))
        exact = geometry_constants(datum, 1)
        assert exact.C == 1 and exact.D == 1

    def test_rank_one_sphere_is_the_sample_grid(self):
        # for k = 1 the unit sphere is exactly the two sampled directions,
        # so the sampled minimum equals the exact constant
        from metabelian.geometry import _directions, _f_value, support_vectors
        datum = datum1("3*t^2", co=("3*t^-2",))
        family = support_vectors(datum, 1)
        exact = geometry_constants(datum, 1)
        sampled = min(_f_value(u, family) for u in _directions(1, 2))
        assert sampled == exact.C


def axis_datum(k, both_signs=True):
    """The datum {x_i} (and {x_i^-1}) over variables x1..xk."""
    ring = Ambient(tuple(f"x{i + 1}" for i in range(k)), (0,) * k, 1, None,
                   laurent=True)
    names = [f"x{i + 1}" for i in range(k)]
    return TamenessDatum(
        centralizer=tuple(parse_element(x, ring) for x in names),
        co_centralizer=tuple(parse_element(f"{x}^-1", ring) for x in names)
        if both_signs else ())


@pytest.mark.parametrize("k", [3, 4])
class TestHigherRank:
    def test_axes_both_ways_are_tame(self, k):
        # f(u) = max_i |u_i| on the sphere, so the infimum is 1/sqrt(k)
        datum = axis_datum(k)
        verdict, info = tameness_check(datum, k)
        assert verdict is True and info["min_value"] > 0
        report = geometry_constants(datum, k)
        assert 0 < report.C <= 1 / math.sqrt(k)
        assert report.D == 1
        # k = 3 settles on the grid of 65536 directions and k = 4 stops
        # there at the cap: the method names that grid, not the next one
        assert report.method == "sampled(65536)"

    def test_axes_one_way_are_not_tame(self, k):
        # u = -(1, ..., 1)/sqrt(k) meets every support negatively
        datum = axis_datum(k, both_signs=False)
        verdict, info = tameness_check(datum, k)
        assert verdict is False and info["min_value"] < 0
        with pytest.raises(TamenessViolation) as err:
            geometry_constants(datum, k)
        assert len(err.value.direction) == k

    def test_directions_are_unit_vectors(self, k):
        from metabelian.geometry import _directions
        for n in (64, 1000):
            dirs = _directions(k, n)
            assert len(dirs) == n
            assert all(len(u) == k and
                       math.isclose(sum(x * x for x in u), 1.0, rel_tol=1e-12)
                       for u in dirs)

