"""Regenerate bench/golden.json: the CSV data rows of each workload's check call.

The stored rows are the reference that every later run is compared with, so
regenerate them only on a commit whose outputs are known to be right:

    python3 bench/make_golden.py
"""

import json
import shutil

import run


def main() -> None:
    cli = run.load_program()
    runner = run.Runner(cli, tracer=None)
    golden = {"check_seed": run.CHECK_SEED, "rtol": run.RTOL, "workloads": {}}
    for name, wl in run.WORKLOADS.items():
        args = wl.cli_args(run.CHECK_SEED, threads=1)
        call = runner.call(args, run.WORK / "golden")
        if call.rc != 0:
            raise SystemExit(f"{name}: stochwave exited {call.rc}:\n{call.log}")
        golden["workloads"][name] = {
            "cli_args": args,
            "files": {f: run.data_rows(b.decode()) for f, b in call.csv.items()},
        }
    shutil.rmtree(run.WORK / "golden", ignore_errors=True)
    run.GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")


if __name__ == "__main__":
    main()
