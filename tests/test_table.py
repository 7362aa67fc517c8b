"""Table-vs-reference equivalence suite for the columnar observation pipeline.

The analyses were rewritten from per-case object walks to NumPy column
reductions; this module keeps *frozen copies* of the original object-path
implementations, fed per-case records by a small decoder, and asserts, on
a real same-seed campaign, that the columnar numbers are identical — plus
structural round-trips (table -> cases -> table, save/load, pickle
payload) and ragged-CSR edge cases (zero improving / zero feasible
relays).
"""

import json
import pickle

import numpy as np
import pytest

from repro.analysis.countries import CountryChangeAnalysis
from repro.analysis.improvements import ImprovementAnalysis
from repro.analysis.ranking import TopRelayAnalysis
from repro.analysis.stability import StabilityAnalysis
from repro.analysis.voip import VoipAnalysis
from repro.core.sweep import SweepRequest, run_seed_campaign, run_sweep
from repro.core.table import NUM_RELAY_TYPES, ObservationTable, TablePools
from repro.core.types import RELAY_TYPE_ORDER, RelayType
from repro.geo.countries import continent_of
from repro.util.stats import median
from table_builder import Case, build_table


def _decode(table):
    """The table's cases as records, every relay type spelled out."""
    pools = table.pools
    ptr = table.imp_indptr.tolist()
    relays, gains = table.imp_relay.tolist(), table.imp_gain.tolist()
    cases = []
    for i in range(table.num_cases):
        best, improving, feasible, groups = {}, {}, {}, {}
        for code, relay_type in enumerate(RELAY_TYPE_ORDER):
            relay = int(table.best_relay[code, i])
            if relay >= 0:
                best[relay_type] = (relay, float(table.best_stitched[code, i]))
            j0, j1 = ptr[i * NUM_RELAY_TYPES + code], ptr[i * NUM_RELAY_TYPES + code + 1]
            improving[relay_type] = tuple(zip(relays[j0:j1], gains[j0:j1]))
            feasible[relay_type] = int(table.feasible[code, i])
            groups[relay_type] = tuple(table.country_flags[code, :, i].tolist())
        cases.append(Case(
            round_index=int(table.round_idx[i]),
            e1_id=pools.endpoint_ids[table.e1_id[i]],
            e2_id=pools.endpoint_ids[table.e2_id[i]],
            e1_cc=pools.countries[table.e1_cc[i]],
            e2_cc=pools.countries[table.e2_cc[i]],
            e1_city=pools.cities[table.e1_city[i]],
            e2_city=pools.cities[table.e2_city[i]],
            direct_rtt_ms=float(table.direct_rtt_ms[i]),
            best_by_type=best,
            improving_by_type=improving,
            feasible_by_type=feasible,
            country_groups_by_type=groups,
        ))
    return cases


# --------------------------------------------------------------------------
# frozen object-path reference implementations (pre-columnar analysis code)


def _ref_best_improvements(observations, relay_type):
    values = []
    for obs in observations:
        entries = obs.improving_by_type.get(relay_type, ())
        if entries:
            values.append(max(gain for _, gain in entries))
    return values


def _ref_improvement_summary(observations):
    total = len(observations)
    info = {}
    for relay_type in RELAY_TYPE_ORDER:
        values = _ref_best_improvements(observations, relay_type)
        name = relay_type.value
        info[f"improved_frac_{name}"] = round(len(values) / total, 4)
        med = median(values) if values else None
        info[f"median_improvement_ms_{name}"] = round(med, 2) if med is not None else None
        count = sum(1 for v in values if v > 100.0)
        info[f"frac_gt100ms_of_improved_{name}"] = round(count / max(1, len(values)), 4)
        counts = [
            len(obs.improving_by_type.get(relay_type, ()))
            for obs in observations
            if obs.improving_by_type.get(relay_type, ())
        ]
        info[f"median_num_improving_{name}"] = (
            median([float(c) for c in counts]) if counts else None
        )
    return info


def _ref_country_split(observations, registry, relay_type):
    diff_total = diff_improved = same_total = same_improved = 0
    for obs in observations:
        entry = obs.best_by_type.get(relay_type)
        if entry is None:
            continue
        idx, stitched = entry
        relay_cc = registry.get(idx).cc
        improved = stitched < obs.direct_rtt_ms
        if relay_cc != obs.e1_cc and relay_cc != obs.e2_cc:
            diff_total += 1
            diff_improved += int(improved)
        else:
            same_total += 1
            same_improved += int(improved)
    return (diff_total, diff_improved, same_total, same_improved)


def _ref_group_rates(observations, relay_type):
    diff_total = diff_improved = same_total = same_improved = 0
    for obs in observations:
        flags = obs.country_groups_by_type.get(relay_type)
        if flags is None:
            continue
        usable_same, improving_same, usable_diff, improving_diff = flags
        if usable_same:
            same_total += 1
            same_improved += int(improving_same)
        if usable_diff:
            diff_total += 1
            diff_improved += int(improving_diff)
    return (diff_total, diff_improved, same_total, same_improved)


def _ref_frequency(observations, relay_type):
    freq = {}
    for obs in observations:
        for idx, _ in obs.improving_by_type.get(relay_type, ()):
            freq[idx] = freq.get(idx, 0) + 1
    return freq


def _ref_fig3(observations, relay_type, max_n):
    freq = _ref_frequency(observations, relay_type)
    ranked = sorted(freq, key=lambda i: (-freq[i], i))
    rank_of = {idx: rank for rank, idx in enumerate(ranked, start=1)}
    total = len(observations)
    best_ranks = []
    for obs in observations:
        entries = obs.improving_by_type.get(relay_type, ())
        if entries:
            best_ranks.append(min(rank_of[idx] for idx, _ in entries))
    return [
        (n, 100.0 * sum(1 for rank in best_ranks if rank <= n) / total)
        for n in range(1, max_n + 1)
    ]


def _ref_fig4(observations, relay_type, thresholds, allowed):
    total = len(observations)
    best_gains = []
    for obs in observations:
        entries = obs.improving_by_type.get(relay_type, ())
        gains = [g for idx, g in entries if allowed is None or idx in allowed]
        if gains:
            best_gains.append(max(gains))
    return [
        (t, 100.0 * sum(1 for g in best_gains if g > t) / total)
        for t in thresholds
    ]


def _ref_voip(observations, threshold, relay_type):
    total = len(observations)
    direct_poor = sum(1 for o in observations if o.direct_rtt_ms > threshold)
    relayed_poor = 0
    for obs in observations:
        effective = obs.direct_rtt_ms
        best = obs.best_by_type.get(relay_type)
        if best is not None and best[1] < effective:
            effective = best[1]
        if effective > threshold:
            relayed_poor += 1
    return direct_poor / total, relayed_poor / total


# --------------------------------------------------------------------------
# equivalence on a real campaign


@pytest.fixture(scope="module")
def campaign(small_campaign_result):
    return small_campaign_result, _decode(small_campaign_result.table)


class TestObjectPathEquivalence:
    def test_improvement_summary(self, campaign):
        result, observations = campaign
        assert ImprovementAnalysis(result).summary() == _ref_improvement_summary(
            observations
        )

    def test_best_improvement_lists(self, campaign):
        from repro.util.stats import cdf_points

        result, observations = campaign
        analysis = ImprovementAnalysis(result)
        for relay_type in RELAY_TYPE_ORDER:
            values = _ref_best_improvements(observations, relay_type)
            assert analysis.improvements(relay_type) == values
            clipped = [v for v in values if 1.0 <= v <= 200.0]
            expected = cdf_points(clipped) if clipped else []
            assert analysis.fig2_cdf(relay_type) == expected

    def test_improved_fraction_matches_object_walk(self, campaign):
        result, observations = campaign
        for relay_type in RELAY_TYPE_ORDER:
            improved = sum(1 for o in observations if o.improving_by_type[relay_type])
            assert result.improved_fraction(relay_type) == improved / len(observations)

    def test_country_split_and_groups(self, campaign):
        result, observations = campaign
        analysis = CountryChangeAnalysis(result)
        for relay_type in RELAY_TYPE_ORDER:
            split = analysis.split(relay_type)
            assert (
                split.different_total,
                split.different_improved,
                split.same_total,
                split.same_improved,
            ) == _ref_country_split(observations, result.registry, relay_type)
            rates = analysis.group_rates(relay_type)
            assert (
                rates.different_total,
                rates.different_improved,
                rates.same_total,
                rates.same_improved,
            ) == _ref_group_rates(observations, relay_type)

    def test_intercontinental_fraction(self, campaign):
        result, observations = campaign
        inter = sum(
            1 for o in observations if continent_of(o.e1_cc) != continent_of(o.e2_cc)
        )
        assert CountryChangeAnalysis(result).intercontinental_fraction() == (
            inter / len(observations)
        )

    def test_ranking_frequency_and_curves(self, campaign):
        result, observations = campaign
        ranking = TopRelayAnalysis(result)
        for relay_type in RELAY_TYPE_ORDER:
            assert ranking.improvement_frequency(relay_type) == _ref_frequency(
                observations, relay_type
            )
            assert ranking.fig3_curve(relay_type, max_n=25) == _ref_fig3(
                observations, relay_type, 25
            )
            thresholds = [0.0, 5.0, 20.0, 100.0]
            assert ranking.fig4_curve(relay_type, thresholds) == _ref_fig4(
                observations, relay_type, thresholds, None
            )
            allowed = set(ranking.top_relays(relay_type, 5))
            assert ranking.fig4_curve(relay_type, thresholds, top_n=5) == _ref_fig4(
                observations, relay_type, thresholds, allowed
            )

    def test_voip_fractions(self, campaign):
        result, observations = campaign
        voip = VoipAnalysis(result)
        direct_ref, relayed_ref = _ref_voip(observations, 320.0, RelayType.COR)
        assert voip.direct_poor_fraction() == direct_ref
        assert voip.relayed_poor_fraction(RelayType.COR) == relayed_ref

    def test_stability_per_round_fractions(self, campaign):
        result, observations = campaign
        stability = StabilityAnalysis(result, min_occurrences=2)
        for relay_type in RELAY_TYPE_ORDER:
            expected = []
            for rnd in result.rounds:
                obs = [o for o in observations if o.round_index == rnd.round_index]
                if not obs:
                    continue
                improved = sum(1 for o in obs if o.improving_by_type[relay_type])
                expected.append((rnd.round_index, improved / len(obs)))
            assert stability.per_round_improved_fractions(relay_type) == expected


# --------------------------------------------------------------------------
# structural round-trips


class TestRoundTrips:
    def test_objects_to_table_and_back(self, campaign):
        result, observations = campaign
        pools = TablePools.fresh()
        rebuilt = ObservationTable.concat(
            [build_table(_decode(rnd.table), pools) for rnd in result.rounds]
        )
        assert rebuilt.pools is pools
        assert result.table.columns_equal(rebuilt)
        assert _decode(rebuilt) == observations

    def test_round_tables_share_pools_with_campaign_table(self, campaign):
        result, _ = campaign
        for rnd in result.rounds:
            assert rnd.table.pools is result.table.pools

    def test_payload_pickle_round_trip(self, campaign):
        result, observations = campaign
        payload = pickle.loads(pickle.dumps(result.table.to_payload()))
        restored = ObservationTable.from_payload(payload)
        assert result.table.columns_equal(restored)
        assert _decode(restored) == observations

    def test_save_load_round_trip(self, campaign, tmp_path):
        from repro.core.io import load_result, save_result

        result, observations = campaign
        path = tmp_path / "result.json"
        save_result(result, path)
        loaded = load_result(path)
        assert _decode(loaded.table) == observations
        assert loaded.table.columns_equal(result.table)
        assert ImprovementAnalysis(loaded).summary() == ImprovementAnalysis(
            result
        ).summary()

    def test_concat_with_distinct_pools_decodes_identically(self, campaign):
        result, _ = campaign
        # one table per round, each with its own pools: the remap path
        per_round = [
            ObservationTable.from_payload(rnd.table.to_payload())
            for rnd in result.rounds
        ]
        merged = ObservationTable.concat(per_round)
        assert merged.pools is not result.table.pools
        assert merged.columns_equal(result.table)


# --------------------------------------------------------------------------
# sweep transport


class TestSweepTransport:
    def test_artifact_byte_identical_across_runs_and_workers(self):
        config = dict(seeds=(3, 4), rounds=1, countries=8)
        a = run_sweep(SweepRequest.from_scenario("baseline", **config))
        b = run_sweep(SweepRequest.from_scenario("baseline", **config, workers=2))
        assert json.dumps(a.as_dict(include_timing=False), sort_keys=True) == (
            json.dumps(b.as_dict(include_timing=False), sort_keys=True)
        )

    def test_per_seed_metrics_match_object_path(self):
        outcome = run_seed_campaign(3, rounds=1, countries=8)
        metrics = outcome["metrics"]
        # recompute the paper-shape metrics through the frozen object walk
        from repro.core.campaign import MeasurementCampaign
        from repro.core.config import CampaignConfig
        from repro.topology.config import TopologyConfig
        from repro.world import WorldConfig, build_world

        world = build_world(
            seed=3, config=WorldConfig(topology=TopologyConfig(country_limit=8))
        )
        result = MeasurementCampaign(world, CampaignConfig(num_rounds=1)).run()
        observations = _decode(result.table)
        assert metrics["total_cases"] == len(observations)
        for relay_type in RELAY_TYPE_ORDER:
            values = _ref_best_improvements(observations, relay_type)
            name = relay_type.value
            assert metrics[f"win_rate_{name}"] == round(
                len(values) / len(observations), 4
            )
            expected = round(median(values), 3) if values else None
            assert metrics[f"median_rtt_reduction_ms_{name}"] == expected

    def test_pooled_section_counts_all_cases(self):
        artifact = run_sweep(
            SweepRequest.from_scenario("baseline", seeds=(3, 4), rounds=1, countries=8)
        )
        assert artifact["pooled"]["total_cases"] == sum(
            m["total_cases"] for m in artifact["per_seed"]
        )


# --------------------------------------------------------------------------
# ragged-CSR edge cases


class TestCsrEdgeCases:
    def test_zero_improving_and_zero_feasible(self):
        cases = [
            # no feasible relays at all: everything empty
            Case(e1_id="p0a", e2_id="p0b"),
            # feasible relays but none improving (best exists, no gain)
            Case(
                e1_id="p1a",
                e2_id="p1b",
                best_by_type={RelayType.COR: (7, 150.0)},
                feasible_by_type={RelayType.COR: 3},
            ),
            # a mixed case: COR improves twice, PLR has feasible-only
            Case(
                e1_id="p2a",
                e2_id="p2b",
                improving_by_type={RelayType.COR: ((7, 30.0), (9, 12.5))},
                best_by_type={RelayType.COR: (7, 90.0)},
                feasible_by_type={RelayType.COR: 4, RelayType.PLR: 2},
                country_groups_by_type={RelayType.COR: (True, True, True, False)},
            ),
        ]
        table = build_table(cases)
        assert table.num_cases == 3
        assert table.imp_indptr[-1] == 2
        counts = table.improving_counts()
        cor = RELAY_TYPE_ORDER.index(RelayType.COR)
        plr = RELAY_TYPE_ORDER.index(RelayType.PLR)
        assert counts[cor].tolist() == [0, 0, 2]
        assert table.improved_count(cor) == 1
        for code in range(NUM_RELAY_TYPES):
            if code != cor:
                assert table.improved_count(code) == 0
        # the defaults of an absent relay type, beside the spelled-out ones
        assert table.best_relay[cor].tolist() == [-1, 7, 7]
        assert np.isnan(table.best_stitched[cor, 0])
        assert np.isnan(table.best_stitched[plr]).all()
        assert table.feasible[:, 2].tolist() == [4, 2, 0, 0]
        assert table.country_flags[cor, :, 2].tolist() == [True, True, True, False]
        assert not table.country_flags[:, :, :2].any()
        assert table.imp_relay.tolist() == [7, 9]
        assert table.imp_gain.tolist() == [30.0, 12.5]

    def test_empty_type_entries(self):
        table = build_table([Case()])
        for code in range(NUM_RELAY_TYPES):
            cases, relays, gains = table.type_entries(code)
            assert cases.size == relays.size == gains.size == 0
            got_cases, got_gains = table.best_gain_per_improved_case()[code]
            assert got_cases.size == got_gains.size == 0

    def test_empty_table(self):
        table = ObservationTable.empty()
        assert table.num_cases == len(table) == 0
        assert build_table([]).columns_equal(table)
        assert ObservationTable.concat([]).num_cases == 0

    def test_best_gain_segments(self):
        cases = [
            Case(
                e1_id="p0a",
                e2_id="p0b",
                improving_by_type={RelayType.PLR: ((1, 5.0), (2, 25.0), (3, 10.0))},
                best_by_type={RelayType.PLR: (2, 95.0)},
                feasible_by_type={RelayType.PLR: 3},
            ),
            Case(e1_id="p1a", e2_id="p1b"),
            Case(
                e1_id="p2a",
                e2_id="p2b",
                improving_by_type={RelayType.PLR: ((4, 40.0),)},
                best_by_type={RelayType.PLR: (4, 80.0)},
                feasible_by_type={RelayType.PLR: 1},
            ),
        ]
        table = build_table(cases)
        plr = RELAY_TYPE_ORDER.index(RelayType.PLR)
        improved, gains = table.best_gain_per_improved_case()[plr]
        assert improved.tolist() == [0, 2]
        assert gains.tolist() == [25.0, 40.0]

    def test_concat_keeps_shared_pools(self):
        pools = TablePools.fresh()
        t1 = build_table([Case(round_index=0)], pools)
        t2 = build_table([Case(round_index=1)], pools)
        merged = ObservationTable.concat([t1, t2])
        assert merged.pools is pools
        assert merged.num_cases == 2
        assert merged.round_idx.tolist() == [0, 1]

    def test_interner_is_stable(self):
        pool = TablePools.fresh()
        a = pool.countries.code("DE")
        b = pool.countries.code("JP")
        assert pool.countries.code("DE") == a
        assert pool.countries.codes(["JP", "DE"]).tolist() == [b, a]
        assert pool.countries[a] == "DE"
