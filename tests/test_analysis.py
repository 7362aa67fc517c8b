"""Tests for the analysis modules (Figs 2-4, Table 1, in-text results)."""

import dataclasses

import numpy as np
import pytest

from repro.analysis.countries import CountryChangeAnalysis
from repro.analysis.facilities import FacilityTable
from repro.analysis.improvements import ImprovementAnalysis
from repro.analysis.ranking import TopRelayAnalysis
from repro.analysis.stability import StabilityAnalysis, series_cvs
from repro.analysis.symmetry import SymmetryAnalysis
from repro.analysis.voip import VoipAnalysis
from repro.core.results import CampaignResult, MedianColumns, RelayRegistry
from repro.core.types import RELAY_TYPE_ORDER, RelayType
from repro.errors import AnalysisError
from repro.util.stats import coefficient_of_variation


class TestImprovementAnalysis:
    def test_fractions_in_unit_interval(self, small_campaign_result):
        analysis = ImprovementAnalysis(small_campaign_result)
        for relay_type in RELAY_TYPE_ORDER:
            assert 0.0 <= analysis.improved_fraction(relay_type) <= 1.0

    def test_improvements_positive(self, small_campaign_result):
        analysis = ImprovementAnalysis(small_campaign_result)
        for relay_type in RELAY_TYPE_ORDER:
            assert all(v > 0 for v in analysis.improvements(relay_type))

    def test_fraction_matches_result_helper(self, small_campaign_result):
        analysis = ImprovementAnalysis(small_campaign_result)
        for relay_type in RELAY_TYPE_ORDER:
            assert analysis.improved_fraction(relay_type) == pytest.approx(
                small_campaign_result.improved_fraction(relay_type)
            )

    def test_cdf_monotone(self, small_campaign_result):
        analysis = ImprovementAnalysis(small_campaign_result)
        cdf = analysis.fig2_cdf(RelayType.COR)
        fs = [f for _, f in cdf]
        assert fs == sorted(fs)

    def test_fraction_above_decreasing_in_threshold(self, small_campaign_result):
        analysis = ImprovementAnalysis(small_campaign_result)
        a = analysis.fraction_above(RelayType.COR, 10.0)
        b = analysis.fraction_above(RelayType.COR, 50.0)
        assert a >= b

    def test_of_total_denominator(self, small_campaign_result):
        analysis = ImprovementAnalysis(small_campaign_result)
        of_improved = analysis.fraction_above(RelayType.COR, 10.0)
        of_total = analysis.fraction_above(RelayType.COR, 10.0, of_total=True)
        assert of_total <= of_improved

    def test_summary_complete(self, small_campaign_result):
        summary = ImprovementAnalysis(small_campaign_result).summary()
        for relay_type in RELAY_TYPE_ORDER:
            assert f"improved_frac_{relay_type.value}" in summary

    def test_empty_result_rejected(self):
        empty = CampaignResult(rounds=[], registry=RelayRegistry())
        with pytest.raises(AnalysisError):
            ImprovementAnalysis(empty)


class TestTopRelayAnalysis:
    def test_ranking_by_frequency(self, small_campaign_result):
        analysis = TopRelayAnalysis(small_campaign_result)
        freq = analysis.improvement_frequency(RelayType.COR)
        top = analysis.top_relays(RelayType.COR, 5)
        counts = [freq[idx] for idx in top]
        assert counts == sorted(counts, reverse=True)

    def test_fig3_curve_monotone(self, small_campaign_result):
        analysis = TopRelayAnalysis(small_campaign_result)
        curve = analysis.fig3_curve(RelayType.COR, max_n=30)
        values = [v for _, v in curve]
        assert values == sorted(values)
        assert values[-1] <= 100.0

    def test_fig3_converges_to_improved_fraction(self, small_campaign_result):
        analysis = TopRelayAnalysis(small_campaign_result)
        improvements = ImprovementAnalysis(small_campaign_result)
        n_all = analysis.num_ranked(RelayType.COR)
        coverage = analysis.coverage_of_top(RelayType.COR, n_all)
        assert coverage == pytest.approx(
            improvements.improved_fraction(RelayType.COR), abs=1e-9
        )

    def test_cor_concentration(self, small_campaign_result):
        """The paper's heavy-hitter result: a handful of COR relays covers
        most of COR's improved cases."""
        analysis = TopRelayAnalysis(small_campaign_result)
        improvements = ImprovementAnalysis(small_campaign_result)
        top10 = analysis.coverage_of_top(RelayType.COR, 10)
        all_frac = improvements.improved_fraction(RelayType.COR)
        assert top10 >= 0.5 * all_frac

    def test_fig4_top_subset_below_all(self, small_campaign_result):
        analysis = TopRelayAnalysis(small_campaign_result)
        thresholds = [0.0, 10.0, 20.0, 50.0]
        all_curve = analysis.fig4_curve(RelayType.COR, thresholds)
        top_curve = analysis.fig4_curve(RelayType.COR, thresholds, top_n=10)
        for (_, all_v), (_, top_v) in zip(all_curve, top_curve):
            assert top_v <= all_v + 1e-9

    def test_fig4_decreasing_in_threshold(self, small_campaign_result):
        analysis = TopRelayAnalysis(small_campaign_result)
        curve = analysis.fig4_curve(RelayType.COR, [0.0, 5.0, 20.0, 80.0])
        values = [v for _, v in curve]
        assert values == sorted(values, reverse=True)

    def test_facilities_of_top(self, small_campaign_result):
        analysis = TopRelayAnalysis(small_campaign_result)
        facilities = analysis.facilities_of_top(10)
        assert 1 <= len(facilities) <= 10

    def test_bad_top_n(self, small_campaign_result):
        with pytest.raises(AnalysisError):
            TopRelayAnalysis(small_campaign_result).coverage_of_top(RelayType.COR, 0)


class TestFacilityTable:
    def test_rows_shape(self, small_campaign_result, small_world):
        table = FacilityTable(small_campaign_result, small_world)
        rows = table.rows(top_relays=20)
        assert rows
        assert rows[0].rank == 1
        for row in rows:
            assert 0.0 <= row.pct_improved_cases <= 100.0
            assert row.num_networks > 0

    def test_features_match_peeringdb(self, small_campaign_result, small_world):
        table = FacilityTable(small_campaign_result, small_world)
        pdb = small_world.peeringdb
        for row in table.rows():
            assert row.num_networks == pdb.network_count(row.facility_id)
            assert row.num_ixps == pdb.ixp_count(row.facility_id)
            assert row.city_key == pdb.city_of(row.facility_id)

    def test_render_contains_rows(self, small_campaign_result, small_world):
        table = FacilityTable(small_campaign_result, small_world)
        text = table.render()
        assert "Facility" in text
        assert len(text.splitlines()) == len(table.rows()) + 1


class TestCountryChangeAnalysis:
    def test_split_totals_consistent(self, small_campaign_result):
        analysis = CountryChangeAnalysis(small_campaign_result)
        for relay_type in RELAY_TYPE_ORDER:
            split = analysis.split(relay_type)
            code = RELAY_TYPE_ORDER.index(relay_type)
            with_best = np.count_nonzero(small_campaign_result.table.best_relay[code] >= 0)
            assert split.different_total + split.same_total == with_best

    def test_rates_in_unit_interval(self, small_campaign_result):
        analysis = CountryChangeAnalysis(small_campaign_result)
        split = analysis.split(RelayType.COR)
        if split.different_rate is not None:
            assert 0.0 <= split.different_rate <= 1.0
        if split.same_rate is not None:
            assert 0.0 <= split.same_rate <= 1.0

    def test_intercontinental_fraction(self, small_campaign_result):
        analysis = CountryChangeAnalysis(small_campaign_result)
        assert 0.0 < analysis.intercontinental_fraction() <= 1.0

    def test_summary_keys(self, small_campaign_result):
        summary = CountryChangeAnalysis(small_campaign_result).summary()
        assert "intercontinental_frac" in summary
        assert "diff_country_rate_COR" in summary


class TestVoipAnalysis:
    def test_relaying_never_hurts(self, small_campaign_result):
        voip = VoipAnalysis(small_campaign_result)
        assert voip.relayed_poor_fraction() <= voip.direct_poor_fraction()

    def test_threshold_validation(self, small_campaign_result):
        with pytest.raises(AnalysisError):
            VoipAnalysis(small_campaign_result, threshold_ms=0.0)

    def test_lower_threshold_more_poor(self, small_campaign_result):
        strict = VoipAnalysis(small_campaign_result, threshold_ms=100.0)
        lax = VoipAnalysis(small_campaign_result, threshold_ms=400.0)
        assert strict.direct_poor_fraction() >= lax.direct_poor_fraction()

    def test_summary(self, small_campaign_result):
        summary = VoipAnalysis(small_campaign_result).summary()
        assert summary["threshold_ms"] == 320.0


class TestStabilityAnalysis:
    def test_needs_two_rounds(self, small_campaign_result):
        single = CampaignResult(
            rounds=small_campaign_result.rounds[:1],
            registry=small_campaign_result.registry,
        )
        with pytest.raises(AnalysisError):
            StabilityAnalysis(single)

    def test_cvs_non_negative(self, small_campaign_result):
        analysis = StabilityAnalysis(small_campaign_result, min_occurrences=2)
        for cv in analysis.all_cvs():
            assert cv >= 0.0

    def test_per_round_fractions(self, small_campaign_result):
        analysis = StabilityAnalysis(small_campaign_result, min_occurrences=2)
        series = analysis.per_round_improved_fractions(RelayType.COR)
        assert len(series) == len(small_campaign_result.rounds)
        for _, frac in series:
            assert 0.0 <= frac <= 1.0

    @staticmethod
    def _reference_cvs(medians, min_occurrences):
        """Per-pair ``coefficient_of_variation``, pairs in first-seen order."""
        series = {}
        for per_round in medians:
            keys = zip(per_round.a.tolist(), per_round.b.tolist())
            for key, value in zip(keys, per_round.ms.tolist()):
                series.setdefault(key, []).append(value)
        return [
            coefficient_of_variation(values)
            for values in series.values()
            if len(values) >= min_occurrences
        ]

    @pytest.mark.parametrize("min_occurrences", [2, 3])
    def test_cvs_match_per_pair_reference(self, small_campaign_result, min_occurrences):
        # Python 3.12's sum() is compensated, so allow a few ULP
        analysis = StabilityAnalysis(small_campaign_result, min_occurrences=min_occurrences)
        rounds = small_campaign_result.rounds
        for cvs, medians in (
            (analysis.direct_pair_cvs(), [r.direct_medians for r in rounds]),
            (analysis.relay_pair_cvs(), [r.relay_medians for r in rounds]),
        ):
            expected = self._reference_cvs(medians, min_occurrences)
            assert cvs and len(cvs) == len(expected)
            np.testing.assert_array_max_ulp(np.array(cvs), np.array(expected), maxulp=4)

    @staticmethod
    def _columns(medians: dict) -> MedianColumns:
        keys = np.array(list(medians), np.int32).reshape(-1, 2)
        return MedianColumns(keys[:, 0], keys[:, 1], np.array(list(medians.values())))

    def test_series_cvs_keys_seen_in_some_rounds(self):
        rounds = [
            self._columns(medians)
            for medians in (
                {(0, 1): 10.0, (0, 2): 20.0, (1, 0): 30.0},
                {(2, 7): 41.0, (0, 2): 22.5, (0, 1): 11.0},
                {(0, 1): 12.5, (2, 7): 40.0, (7, 2): 7.0},
            )
        ]
        for min_occurrences, kept in ((2, 3), (3, 1)):
            cvs = series_cvs(rounds, min_occurrences)
            expected = self._reference_cvs(rounds, min_occurrences)
            assert len(cvs) == kept
            np.testing.assert_array_max_ulp(np.array(cvs), np.array(expected), maxulp=4)
        assert series_cvs([self._columns({}), self._columns({})], 2) == []
        with pytest.raises(AnalysisError, match="zero mean"):
            series_cvs([self._columns({(3, 3): 1.0}), self._columns({(3, 3): -1.0})], 2)

    def test_without_relay_medians(self, small_campaign_result):
        result = CampaignResult(
            rounds=[
                dataclasses.replace(rnd, relay_medians=None)
                for rnd in small_campaign_result.rounds
            ],
            registry=small_campaign_result.registry,
        )
        analysis = StabilityAnalysis(result, min_occurrences=2)
        with pytest.raises(AnalysisError, match="record_relay_medians"):
            analysis.relay_pair_cvs()
        direct = analysis.direct_pair_cvs()
        assert analysis.all_cvs(include_relay_legs=False) == direct
        assert analysis.summary()["num_recurring_pairs"] == float(len(direct))

    def test_fraction_below_counts(self, small_campaign_result):
        analysis = StabilityAnalysis(small_campaign_result, min_occurrences=2)
        cvs = analysis.all_cvs()
        if cvs:
            frac = sum(1 for cv in cvs if cv < 0.10) / len(cvs)
            assert analysis.summary().get("frac_cv_below_10pct") == pytest.approx(
                round(frac, 4)
            )


class TestSymmetryAnalysis:
    def test_identical_directions(self):
        analysis = SymmetryAnalysis([(100.0, 100.0), (50.0, 50.0)])
        assert analysis.fraction_within(0.05) == 1.0
        assert analysis.mean_signed_difference() == 0.0

    def test_asymmetric_pairs_flagged(self):
        analysis = SymmetryAnalysis([(100.0, 120.0)])
        assert analysis.fraction_within(0.05) == 0.0
        assert analysis.fraction_within(0.25) == 1.0

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(AnalysisError):
            SymmetryAnalysis([])
        with pytest.raises(AnalysisError):
            SymmetryAnalysis([(0.0, 10.0)])

    def test_campaign_symmetry_matches_paper_shape(self, small_world):
        from repro.core.campaign import MeasurementCampaign
        from repro.core.config import CampaignConfig

        campaign = MeasurementCampaign(
            small_world, CampaignConfig(num_rounds=1, max_countries=10)
        )
        analysis = SymmetryAnalysis(campaign.measure_direction_symmetry())
        # the paper observed ~80% of pairs within 5%; accept a broad band
        assert analysis.fraction_within(0.05) > 0.5
