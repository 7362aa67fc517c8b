"""Tests for the VIA-style predictor and the 1-vs-2-relay study."""

import dataclasses

import numpy as np
import pytest

from repro.analysis.multihop import two_relay_study
from repro.core.oracle import LaneHistory, evaluate_prediction
from repro.core.results import CampaignResult
from repro.core.table import ObservationTable
from repro.core.types import RelayType
from repro.errors import AnalysisError
from table_builder import Case, build_table


def _obs(round_index, cc1, cc2, improving, direct=100.0):
    return Case(
        round_index=round_index,
        e1_cc=cc1,
        e2_cc=cc2,
        e1_city=f"X/{cc1}",
        e2_city=f"Y/{cc2}",
        direct_rtt_ms=direct,
        improving_by_type={RelayType.COR: tuple(improving)},
        feasible_by_type={RelayType.COR: len(improving)},
    )


def _history(*cases: Case) -> LaneHistory:
    return LaneHistory.from_table(build_table(list(cases)))


class TestLaneHistoryRanking:
    def test_predicts_most_frequent(self):
        history = _history(
            *[_obs(0, "DE", "US", [(1, 10.0), (2, 5.0)])] * 3,
            _obs(0, "DE", "US", [(2, 5.0)]),
            _obs(0, "DE", "US", [(3, 50.0)]),
        )
        # relay 2 improved 4 times, relay 1 three times, relay 3 once
        assert history.predict_ccs("DE", "US", k=2) == [2, 1]

    def test_country_pair_key_symmetric(self):
        history = _history(_obs(0, "DE", "US", [(7, 10.0)]))
        assert history.predict_ccs("US", "DE", k=1) == [7]

    def test_no_history_predicts_empty(self):
        assert _history().predict_ccs("FR", "JP", k=3) == []
        # known countries whose lane never improved have no history either
        history = _history(
            _obs(0, "FR", "JP", []), _obs(0, "DE", "US", [(7, 10.0)])
        )
        assert history.num_lanes == 1
        assert history.predict_ccs("FR", "JP", k=3) == []

    def test_bad_k(self):
        history = _history(_obs(0, "DE", "US", [(7, 10.0)]))
        for cc1, cc2 in (("DE", "US"), ("FR", "JP")):
            with pytest.raises(AnalysisError):
                history.predict_ccs(cc1, cc2, k=0)


class TestEvaluatePrediction:
    def test_needs_two_rounds(self, small_campaign_result):
        single = CampaignResult(
            rounds=small_campaign_result.rounds[:1],
            registry=small_campaign_result.registry,
        )
        with pytest.raises(AnalysisError):
            evaluate_prediction(single)

    def test_score_ranges(self, small_campaign_result):
        score = evaluate_prediction(small_campaign_result, k=3)
        assert score.evaluated >= 0
        assert 0.0 <= score.hit_rate <= 1.0
        assert 0.0 <= score.captured_gain_frac <= 1.0

    def test_bigger_k_never_worse(self, small_campaign_result):
        k1 = evaluate_prediction(small_campaign_result, k=1)
        k5 = evaluate_prediction(small_campaign_result, k=5)
        assert k5.hit_at_k >= k1.hit_at_k
        assert k5.captured_gain_frac >= k1.captured_gain_frac - 1e-9

    def test_history_helps(self, small_campaign_result):
        """With frequency-stable winners, prediction should capture a
        meaningful share of the oracle gain."""
        score = evaluate_prediction(small_campaign_result, k=5)
        if score.evaluated >= 10:
            assert score.captured_gain_frac > 0.3


class TestColumnarParity:
    """Edge cases of the columnar predictor and evaluation; their outputs
    on the small campaign are frozen in tests/test_golden.py."""

    def test_lane_history_unknown_country_empty(self, small_campaign_result):
        history = LaneHistory.from_table(small_campaign_result.table)
        assert history.predict_ccs("ZZ", "XX", 3) == []

    def test_columnar_needs_two_rounds(self, small_campaign_result):
        single = CampaignResult(
            rounds=small_campaign_result.rounds[:1],
            registry=small_campaign_result.registry,
        )
        with pytest.raises(AnalysisError):
            evaluate_prediction(single)

    def test_columnar_k_validation(self, small_campaign_result):
        with pytest.raises(AnalysisError):
            evaluate_prediction(small_campaign_result, RelayType.COR, 0)

    def test_k_validated_when_last_round_evaluates_nothing(
        self, small_campaign_result
    ):
        rounds = small_campaign_result.rounds
        silent = dataclasses.replace(
            rounds[-1], table=ObservationTable.empty(rounds[-1].table.pools)
        )
        result = CampaignResult(
            rounds=[*rounds[:-1], silent], registry=small_campaign_result.registry
        )
        assert evaluate_prediction(result, RelayType.COR, 1).evaluated == 0
        with pytest.raises(AnalysisError):
            evaluate_prediction(result, RelayType.COR, 0)


class TestTwoRelayStudy:
    def test_study_runs(self, small_world):
        probes = [p.node.endpoint for p in small_world.atlas.all_probes()[:12]]
        relays = [
            i.node.endpoint for i in small_world.colo_pool.live_interfaces()[:20]
        ]
        study = two_relay_study(
            small_world.latency, probes, relays, np.random.default_rng(0)
        )
        assert study.pairs > 0
        # a strict 2-relay path (r1 != r2) is not a superset of 1-relay
        # paths, so its improved count can land on either side; both must
        # be in a plausible band
        assert 0 <= study.two_relay_improved <= study.pairs
        assert 0 <= study.one_relay_improved <= study.pairs
        assert study.extra_gain_ms_median >= 0.0

    def test_one_relay_is_usually_enough(self, small_world):
        """The Han et al. claim the paper builds on."""
        probes = [p.node.endpoint for p in small_world.atlas.all_probes()[:16]]
        relays = [
            i.node.endpoint for i in small_world.colo_pool.live_interfaces()[:25]
        ]
        study = two_relay_study(
            small_world.latency, probes, relays, np.random.default_rng(1)
        )
        assert study.one_relay_captures_frac >= 0.5

    def test_input_validation(self, small_world):
        rng = np.random.default_rng(2)
        probes = [p.node.endpoint for p in small_world.atlas.all_probes()[:3]]
        with pytest.raises(AnalysisError):
            two_relay_study(small_world.latency, probes[:1], probes, rng)
        with pytest.raises(AnalysisError):
            two_relay_study(small_world.latency, probes, probes[:1], rng)
