"""Seeded campaign workloads of the benchmark.

Each workload is one `ScenarioConfig` shape, run once per algorithm in
`harness.ALGORITHMS`; only `algorithm`, `mode` and `seed` differ between
the seven campaigns of a workload.  The scenario seed is the benchmark's
`--seed`, so one seed fixes every channel, symbol and noise draw.

This module imports neither numpy nor the package, so the set-up probe
can time those imports in a fresh interpreter.
"""

from __future__ import annotations

# Why each workload exists, and which layer it puts in front.  "smoke" is
# the smallest form, for the self-test; "reference" names the
# ReferenceKernel that slows down with the workload's dominant work.
WORKLOADS = {
    # Default scenario (N=31, K=8, L=2, N_I=3, static 3-path random-delay
    # channel, 12 dB, 200 training symbols), few runs of many symbols: the
    # receiver layers (adaptive, interpolation, harness loop) do most of
    # the work, and there are too few runs for run batching to engage.
    "static-long": {
        "why": "few long static runs, so the adaptive step, Re projection and symbol loop dominate",
        "scenario": {"runs": 2, "symbols": 2000},
        "smoke": {"runs": 1, "symbols": 260},
        "reference": "loop",
    },
    # static-long with Doppler fading: every run synthesises a 2^20-sample
    # fading block per path (~0.64 s), so signal_model dominates.  One
    # shorter run, because a fading run costs about 4x a static one.
    "fading": {
        "why": "Doppler fading at f_dt=1e-4, so per-run fading synthesis in signal_model dominates",
        "scenario": {"runs": 1, "symbols": 1200, "f_dt": 1e-4},
        "smoke": {"runs": 1, "symbols": 260, "f_dt": 1e-4},
        "reference": "fft",
    },
    # Default 50 runs with 200 symbols past training: per-run set-up, the
    # 50-way reduction and training (rake's least-squares combiner) weigh
    # in, and a run-batched engine would engage here.
    "many-short-runs": {
        "why": "default 50 short runs, half in training, so per-run set-up, reduction and the run axis weigh in",
        "scenario": {"runs": 50, "symbols": 400},
        "smoke": {"runs": 3, "symbols": 260},
        "reference": "loop",
    },
}


def scenarios(workload: str, algorithms, seed: int, smoke: bool = False) -> dict:
    """Scenario dicts (the CLI's `--config` content) per algorithm.

    The CMV receivers run blind; every other algorithm trains.
    """
    base = WORKLOADS[workload]["smoke" if smoke else "scenario"]
    return {alg: {**base, "algorithm": alg, "seed": seed,
                  "mode": "blind" if alg.startswith("cmv") else "training"}
            for alg in algorithms}
