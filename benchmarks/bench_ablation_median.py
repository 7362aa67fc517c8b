"""ABLATION — median-of-6 vs mean-of-6 batch summarisation.

The paper summarises each 30-minute window by the *median* of its 6 pings
precisely because RIPE Atlas batches contain heavy outliers (Sec 2.5,
footnote 4).  This bench injects the model's congestion spikes and
compares how far each statistic strays from the pair's true base RTT.
"""

from __future__ import annotations

import numpy as np

from repro.latency.model import LatencyConfig, LatencyModel
from repro.latency.ping import PingEngine


def test_median_vs_mean_robustness(benchmark, world, report_sink):
    # a spike-heavy variant of the latency model over the world's delay grid
    spiky_model = LatencyModel(LatencyConfig(spike_prob=0.12, spike_range_ms=(100.0, 400.0)))
    world.ensure_routing_fabric()
    spiky_model.set_attachment_grid(*world.latency.attachment_grid())
    engine = PingEngine(spiky_model)
    probes = [p.node.endpoint for p in world.atlas.all_probes()[:60]]
    rng = np.random.default_rng(17)

    def study():
        median_err, mean_err, batches = 0.0, 0.0, 0
        for i in range(0, len(probes) - 1, 2):
            src, dst = probes[i], probes[i + 1]
            base = spiky_model.base_rtt_ms(src, dst)
            if base is None:
                continue
            for _ in range(10):
                result = engine.ping(src, dst, rng, count=6)
                valid = result.valid_rtts
                if len(valid) < 3:
                    continue
                batches += 1
                med = result.median_rtt()
                mean = sum(valid) / len(valid)
                median_err += abs(med - base) / base
                mean_err += abs(mean - base) / base
        return median_err / batches, mean_err / batches, batches

    med_err, mean_err, batches = benchmark.pedantic(study, rounds=1, iterations=1)
    report_sink(
        "ablation_median",
        f"batches: {batches} (6 pings each, 12% spike probability)\n"
        f"mean relative error of MEDIAN vs true base RTT: {100 * med_err:.2f}%\n"
        f"mean relative error of MEAN   vs true base RTT: {100 * mean_err:.2f}%\n"
        f"median is {mean_err / med_err:.1f}x closer to the truth under outliers",
    )
    assert med_err < mean_err, "median must be more robust than mean under spikes"
