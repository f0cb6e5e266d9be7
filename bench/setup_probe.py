"""Time one stochwave set-up in a fresh process and print it as one JSON line.

Set-up covers importing stochwave (and numpy and scipy with it), resolving
the experiment from CLI arguments, validate_config, and building every
FeSpace and WaveStepper the experiment uses, once each.  Interpreter start-up
is not included.

Usage: python3 bench/setup_probe.py <stochwave CLI arguments>
"""

import time

_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def main(cli_args: list[str]) -> None:
    from stochwave import (
        Diffusion,
        FeSpace,
        SchemeConfig,
        WaveStepper,
        build_interval_mesh,
        build_unit_square_tri_mesh,
        refine_uniform,
    )
    from stochwave.experiments import validate_config
    from stochwave.metrics import quadrature_degree_for

    from plan import plan_study, resolve_config

    cfg = resolve_config(cli_args)
    problems = validate_config(cfg)
    if problems:
        raise SystemExit("invalid configuration: " + "; ".join(problems))
    quad = quadrature_degree_for(cfg.degree, cfg.drift)
    build = build_interval_mesh if cfg.dimension == 1 else build_unit_square_tri_mesh
    n_spaces = n_steppers = 0
    for study in cfg.studies:
        runs = plan_study(cfg, study)
        levels = sorted({r.level for r in runs})
        # nested levels come from refining the coarsest mesh, as the drivers do
        mesh = build(levels[0])
        meshes = {mesh.resolution: mesh}
        while mesh.resolution < levels[-1]:
            mesh = refine_uniform(mesh)
            meshes[mesh.resolution] = mesh
        spaces = {level: FeSpace(meshes[level], cfg.degree, quad) for level in levels}
        for r in runs:
            scheme_cfg = SchemeConfig(
                tau=r.tau,
                n_steps=r.n_steps,
                scheme=cfg.scheme,
                newton_abs_tol=cfg.newton_abs_tol,
            )
            diffusion = Diffusion.zero() if r.zero_noise else cfg.diffusion
            WaveStepper(spaces[r.level], cfg.drift, diffusion, scheme_cfg)
        n_spaces += len(spaces)
        n_steppers += len(runs)
    elapsed = time.perf_counter() - _START
    print(json.dumps({"setup_s": elapsed, "spaces": n_spaces, "steppers": n_steppers}))


if __name__ == "__main__":
    main(sys.argv[1:])
