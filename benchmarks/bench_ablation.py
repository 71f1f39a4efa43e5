"""Ablation study over the individual optimization switches.

The paper evaluates the optimizations cumulatively (Fig 16); this bench
toggles each :class:`~repro.core.OptConfig` switch independently on a
representative workload subset to show where the win comes from.
``full`` is ``OptLevel.FULL``, which enables the same switches as
``packed + elimination``: Sec III-D scheduling has no switch of its own
because it reorders no block of the paper workloads (EXPERIMENTS.md).

The sweep itself lives in :func:`repro.harness.ablation` so that
``repro bench`` (the continuous-benchmarking orchestrator) and this
pytest-benchmark entry point are the same experiment — this file only
adds the wall-clock measurement and the sanity assertions.
"""

from repro.harness import ablation
from repro.harness.experiments import ABLATION_SUBSET


def test_ablation(benchmark, save):
    result = benchmark.pedantic(ablation, rounds=1, iterations=1)
    save("ablation", result,
         config={"subset": ABLATION_SUBSET, "engine": "rules-custom",
                 "baseline": "tcg"})
    speedups = result.summary
    # Packing and elimination each help on their own; combined they beat
    # either alone; inter-TB contributes on top.
    assert speedups["packed only"] > speedups["base"]
    assert speedups["elimination only"] > speedups["base"]
    assert speedups["packed + elimination"] > speedups["packed only"]
    assert speedups["packed + elimination"] > \
        speedups["elimination only"]
    assert speedups["full"] >= 0.99 * speedups["full (no inter-TB)"]
