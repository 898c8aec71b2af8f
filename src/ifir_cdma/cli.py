"""Command-line entry point for Monte-Carlo scenario runs.

Reads a JSON scenario file, applies flag overrides, runs the campaign
and writes the averaged metric series as CSV or JSON.  Exit codes:
0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .harness import ConfigError, ScenarioConfig, export, run_campaign


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ifir-cdma",
        description="Monte-Carlo simulation of interpolated reduced-rank DS-CDMA receivers")
    parser.add_argument("--config", required=True, help="JSON scenario file")
    parser.add_argument("--out", required=True, help="output path for the metric series")
    parser.add_argument("--format", choices=["csv", "json"], default="csv")
    parser.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    parser.add_argument("--runs", type=int, default=None, help="override the run count")
    parser.add_argument("--workers", type=int, default=1, help="parallel trial workers")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.workers < 1:
            raise ConfigError("--workers must be at least 1")
        with open(args.config) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ConfigError("scenario file must hold a JSON object")
        if args.seed is not None:
            doc["seed"] = args.seed
        if args.runs is not None:
            doc["runs"] = args.runs
        cfg = ScenarioConfig.from_dict(doc)
    except (OSError, json.JSONDecodeError, ConfigError, TypeError) as exc:
        print(f"ifir-cdma: configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        series = run_campaign(cfg, workers=args.workers)
        export(series, args.out, args.format)
    except np.linalg.LinAlgError as exc:
        print(f"ifir-cdma: numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"ifir-cdma: cannot write output: {exc}", file=sys.stderr)
        return 2
    summary = series.summary()
    ber = "n/a" if summary["final_ber"] is None else f"{summary['final_ber']:.3g}"
    if summary["final_ber"] is None:
        print(f"ifir-cdma: warning: no symbol was decided (n_tr={cfg.n_tr} >= "
              f"symbols={cfg.symbols}); the BER is undefined", file=sys.stderr)
    print(f"{cfg.algorithm} L={cfg.l} N_I={cfg.n_i} runs={series.metadata['runs_averaged']}: "
          f"final MSE {summary['final_mse']:.4g}, SINR {summary['final_sinr_db']:.2f} dB, "
          f"BER {ber} -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
