"""Shared benchmark fixtures.

The benchmarks regenerate every figure and table of the paper against a
full-scale world.  The campaign (6 rounds here vs the paper's 45; scaling
is linear and the shapes stabilise after a few rounds) runs once per
session; each bench then times its analysis and prints the reproduced
series, also writing them under ``benchmarks/results/`` so
``benchmarks/README.md`` can cite them.
"""

from __future__ import annotations

import pathlib

import pytest

from repro import CampaignConfig, MeasurementCampaign, build_world

BENCH_SEED = 11
BENCH_ROUNDS = 6

_RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def world():
    """The full default world every bench runs against."""
    return build_world(seed=BENCH_SEED)


@pytest.fixture(scope="session")
def campaign(world):
    """The (already-constructed) campaign object."""
    return MeasurementCampaign(world, CampaignConfig(num_rounds=BENCH_ROUNDS))


@pytest.fixture(scope="session")
def result(campaign):
    """The campaign result shared by all analysis benches."""
    return campaign.run()


@pytest.fixture(scope="session")
def report_sink():
    """Write a named report both to stdout and benchmarks/results/."""
    _RESULTS_DIR.mkdir(exist_ok=True)

    def write(name: str, text: str) -> None:
        print(f"\n===== {name} =====\n{text}")
        (_RESULTS_DIR / f"{name}.txt").write_text(text + "\n")

    return write
