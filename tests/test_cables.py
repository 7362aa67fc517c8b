"""Tests for the submarine cable landing-point substrate and analysis."""

import pytest

from repro.analysis.cables import CableProximityAnalysis, CableProximityReport
from repro.core.types import RelayType
from repro.errors import AnalysisError
from repro.geo.cables import LandingPointIndex, all_landing_points
from repro.geo.coords import GeoPoint


class TestLandingPoints:
    def test_table_nonempty_and_global(self):
        points = all_landing_points()
        assert len(points) >= 25
        continents = set()
        from repro.geo.countries import continent_of

        for lp in points:
            continents.add(continent_of(lp.cc))
        assert continents == {"EU", "NA", "SA", "AS", "AF", "OC"}

    def test_nearest_is_sensible(self):
        index = LandingPointIndex()
        # a point just off Marseille must resolve to Marseille
        nearest, dist = index.nearest(GeoPoint(43.0, 5.0))
        assert nearest.name == "Marseille"
        assert dist < 200

    def test_inland_location_far(self):
        index = LandingPointIndex()
        # central Kazakhstan is far from any landing station
        assert index.distance_km(GeoPoint(48.0, 67.0)) > 1000

    def test_distance_zero_at_station(self):
        index = LandingPointIndex()
        station = all_landing_points()[0]
        assert index.distance_km(station.location) == pytest.approx(0.0)


class TestCableProximityAnalysis:
    def test_report_shape(self, small_campaign_result):
        analysis = CableProximityAnalysis(small_campaign_result, threshold_km=700.0)
        report = analysis.report()
        assert report.near_pairs > 0 and report.far_pairs > 0
        assert 0.0 <= report.near_improved_rate <= 1.0
        assert 0.0 <= report.far_improved_rate <= 1.0
        assert report.near_direct_median_ms > 0
        assert report.far_direct_median_ms > 0

    def test_bad_threshold(self, small_campaign_result):
        with pytest.raises(AnalysisError):
            CableProximityAnalysis(small_campaign_result, threshold_km=0.0)

    def test_near_endpoints_see_lower_direct_latency(self, small_campaign_result):
        """Coastal-hub endpoints should enjoy shorter intercontinental
        paths than deep-inland ones — the effect the paper wants to probe."""
        analysis = CableProximityAnalysis(small_campaign_result, threshold_km=700.0)
        report = analysis.report()
        assert report.near_direct_median_ms <= report.far_direct_median_ms * 1.3

    def test_report_is_frozen(self, small_campaign_result):
        """Values recorded from the per-observation implementation."""
        analysis = CableProximityAnalysis(small_campaign_result, threshold_km=700.0)
        common = dict(
            threshold_km=700.0,
            near_pairs=129,
            far_pairs=75,
            near_direct_median_ms=235.84429416815897,
            far_direct_median_ms=226.10402023371637,
        )
        assert analysis.report() == CableProximityReport(
            **common,
            near_improved_rate=0.8837209302325582,
            far_improved_rate=0.9733333333333334,
        )
        assert analysis.report(RelayType.RAR_EYE) == CableProximityReport(
            **common,
            near_improved_rate=0.17829457364341086,
            far_improved_rate=0.13333333333333333,
        )
