"""What a resolved stochwave experiment config will run, counted in sample-steps.

A *sample-step* is one Newton-solved time step on one Brownian path.  Every
study of a config expands into planned runs: one (mesh level, tau) pair and
the number of paths that go through it.  Reference runs of rate tables and
the deterministic companion of a stability study count like any other run.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PlannedRun:
    level: int
    tau: float
    n_steps: int
    paths: int
    zero_noise: bool  # deterministic companion or analytic check


def resolve_config(cli_args: list[str]):
    """The experiment config the stochwave CLI builds from these arguments."""
    from stochwave.cli import apply_overrides, build_parser
    from stochwave.experiments import preset_config

    args = build_parser().parse_args(cli_args)
    return apply_overrides(preset_config(args.preset, paper_scale=args.paper_scale), args)


def plan_study(cfg, study) -> list[PlannedRun]:
    from stochwave.experiments import AnalyticStudy, RateStudy, StabilityStudy

    def run(level, tau, T, paths, zero_noise=False):
        return PlannedRun(int(level), float(tau), round(T / tau), paths, zero_noise)

    n = cfg.n_samples
    if isinstance(study, RateStudy):
        extra = study.reference_extra_levels
        if study.mode == "spatial":
            tau = study.taus[0]
            levels = list(study.levels) + [study.levels[-1] * 2**extra]
            return [run(level, tau, study.T, n) for level in levels]
        taus = list(study.taus) + [study.taus[-1] / 2**extra]
        return [run(study.levels[0], tau, study.T, n) for tau in taus]
    if isinstance(study, StabilityStudy):
        runs = [run(study.level, study.tau, study.T, n)]
        if study.deterministic_companion:
            runs.append(run(study.level, study.tau, study.T, 1, zero_noise=True))
        return runs
    if isinstance(study, AnalyticStudy):
        return [run(level, study.tau, study.T, 1, zero_noise=True) for level in study.levels]
    raise TypeError(f"unknown study type {type(study).__name__}")


def sample_steps(cfg) -> int:
    return sum(r.n_steps * r.paths for s in cfg.studies for r in plan_study(cfg, s))


def samples_attempted(cfg) -> int:
    """Samples one CLI call attempts: each study's Monte Carlo samples, plus
    one for its deterministic path (companion or analytic check) if it has one."""
    total = 0
    for study in cfg.studies:
        runs = plan_study(cfg, study)
        total += cfg.n_samples if any(not r.zero_noise for r in runs) else 0
        total += 1 if any(r.zero_noise for r in runs) else 0
    return total
