"""Path-inflation survey over a routed world.

Path inflation (Spring et al., SIGCOMM 2003) is the mechanism behind every
TIV the paper exploits: the direct BGP path's geographic course exceeds
the geodesic.  This survey samples endpoint pairs, walks their policy
paths, and reports the inflation distribution — the knob that explains
why the improvement magnitudes reproduced here differ from the paper's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import AnalysisError
from repro.routing.inflation import geodesic_inflation
from repro.util.stats import median, quantiles
from repro.world import World


@dataclass(frozen=True, slots=True)
class InflationSurvey:
    """Distribution of geodesic inflation over sampled AS pairs.

    Attributes:
        pairs: Sampled routable pairs.
        median_inflation: Median path-length / geodesic ratio.
        p90_inflation: 90th percentile of the ratio.
        frac_above_1_5: Fraction of pairs inflated beyond 1.5x.
        median_as_path_len: Median AS-path hop count.
    """

    pairs: int
    median_inflation: float
    p90_inflation: float
    frac_above_1_5: float
    median_as_path_len: float


def survey_inflation(
    world: World, rng: np.random.Generator, num_pairs: int = 300
) -> InflationSurvey:
    """Sample eyeball AS pairs and measure their direct-path inflation.

    Raises:
        AnalysisError: if no routable pair is found.
    """
    if num_pairs < 1:
        raise AnalysisError("num_pairs must be positive")
    eyeballs = list(world.topology.eyeball_asns())
    if len(eyeballs) < 2:
        raise AnalysisError("world has fewer than 2 eyeball ASes")
    inflations: list[float] = []
    path_lengths: list[float] = []
    attempts = 0
    while len(inflations) < num_pairs and attempts < num_pairs * 4:
        attempts += 1
        i, j = rng.choice(len(eyeballs), size=2, replace=False)
        src, dst = eyeballs[int(i)], eyeballs[int(j)]
        as_path = world.routing.path(src, dst)
        if as_path is None or len(as_path) < 2:
            continue
        src_city = world.graph.get_as(src).primary_city
        dst_city = world.graph.get_as(dst).primary_city
        if src_city == dst_city:
            continue
        waypoints = world.walker.waypoints(src_city, as_path, dst_city)
        inflations.append(geodesic_inflation(waypoints))
        path_lengths.append(float(len(as_path)))
    if not inflations:
        raise AnalysisError("no routable eyeball pairs sampled")
    p90 = quantiles(inflations, [90.0])[0]
    return InflationSurvey(
        pairs=len(inflations),
        median_inflation=median(inflations),
        p90_inflation=p90,
        frac_above_1_5=sum(1 for x in inflations if x > 1.5) / len(inflations),
        median_as_path_len=median(path_lengths),
    )
