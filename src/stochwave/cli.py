"""Command line entry point: run presets or config files, with flag overrides.

Precedence is flag > config file > preset default.  A ``--tau`` or
``--h-level`` that overrides no study of the experiment is a config error.
Exit status: 0 on success, 1 when a computation fails (e.g. too many Newton
failures), 2 on config or validation errors.  A run whose worst per-step
energy residual exceeds ENERGY_RESIDUAL_BOUND still exits 0, with a warning
on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .drift import SCHEMES
from .experiments import (
    PRESETS,
    ExperimentConfig,
    RateStudy,
    StabilityStudy,
    AnalyticStudy,
    config_from_dict,
    preset_config,
    run_experiment,
    validate_config,
)

__all__ = ["main", "build_parser", "apply_overrides"]

# The energy contract: every step's residual of the discrete energy identity,
# relative to 1 + |H|, stays at or below this.
ENERGY_RESIDUAL_BOUND = 1e-8


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="stochwave",
        description=(
            "Finite element experiments for a nonlinear stochastic wave "
            "equation: convergence-rate tables and Monte Carlo stability series."
        ),
    )
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", choices=sorted(PRESETS), help="named experiment")
    src.add_argument("--config", type=Path, help="JSON experiment config file")
    p.add_argument("--samples", type=int, help="override Monte Carlo sample count")
    p.add_argument("--seed", type=int, help="override the master seed")
    p.add_argument("--tau", type=float, help="override scalar time steps")
    p.add_argument("--h-level", type=int, help="override single-level mesh resolutions")
    p.add_argument("--scheme", choices=SCHEMES, help="drift discretization")
    p.add_argument("--threads", type=int, help="worker count (results independent)")
    p.add_argument("--out", type=Path, default=Path("results"), help="output directory")
    p.add_argument(
        "--paper-scale",
        action="store_true",
        help="full ladders and 5000 samples instead of desk-scale defaults",
    )
    return p


def apply_overrides(cfg: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    """Apply the flags to the config; ValueError, naming the flag, when
    ``--tau`` or ``--h-level`` would override no study."""
    if args.samples is not None:
        cfg.n_samples = args.samples
    if args.seed is not None:
        cfg.master_seed = args.seed
    if args.scheme is not None:
        cfg.scheme = args.scheme
    if args.threads is not None:
        cfg.threads = args.threads
    reached = set()
    for study in cfg.studies:
        if args.tau is not None:
            if isinstance(study, RateStudy) and study.mode == "spatial":
                study.taus = [args.tau]
                reached.add("--tau")
            elif isinstance(study, (StabilityStudy, AnalyticStudy)):
                study.tau = args.tau
                reached.add("--tau")
        if args.h_level is not None:
            if isinstance(study, RateStudy) and study.mode == "temporal":
                study.levels = [args.h_level]
                reached.add("--h-level")
            elif isinstance(study, StabilityStudy):
                study.level = args.h_level
                reached.add("--h-level")
    unused = [
        flag for flag, value in (("--tau", args.tau), ("--h-level", args.h_level))
        if value is not None and flag not in reached
    ]
    if unused:
        raise ValueError(
            f"{' and '.join(unused)} overrides no study of {cfg.name!r}: --tau sets the "
            "step of spatial rate, stability and analytic studies, --h-level the level "
            "of temporal rate and stability studies"
        )
    return cfg


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.preset:
            cfg = preset_config(args.preset, paper_scale=args.paper_scale)
        else:
            try:
                raw = json.loads(args.config.read_text())
            except (OSError, json.JSONDecodeError) as exc:
                print(f"error: cannot read config {args.config}: {exc}", file=sys.stderr)
                return 2
            cfg = config_from_dict(raw)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        cfg = apply_overrides(cfg, args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    problems = validate_config(cfg)
    if problems:
        print("invalid configuration:", file=sys.stderr)
        for msg in problems:
            print(f"  {msg}", file=sys.stderr)
        return 2

    try:
        result = run_experiment(cfg, args.out)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for f in result.files:
        print(f"wrote {result.out_dir / f}")
    print(f"wrote {result.manifest_path}")
    if result.n_failures:
        print(f"note: {result.n_failures} sample(s) hit Newton failures")
    if result.max_energy_violation > ENERGY_RESIDUAL_BOUND:
        print(
            f"warning: worst energy residual {result.max_energy_violation:.3e} exceeds "
            f"the bound {ENERGY_RESIDUAL_BOUND:g} (relative to 1 + |H|)",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
