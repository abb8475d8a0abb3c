"""Record the reference outputs the checker compares against.

    python3 perfbench/record_reference.py [workload ...]

Runs each workload once at its default seed and full size and stores
its deterministic outputs under perfbench/reference/. Re-record only
when a change to the package is meant to change those outputs, and say
so in the change.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
import workloads  # noqa: E402
from citnet.pipeline import load_config, run_pipeline, run_synth  # noqa: E402


def record(name: str, state: Path):
    input_dir, _sizes = workloads.build(name, workloads.DEFAULT_SEED,
                                        state / "inputs")
    outdir = state / "record" / name
    if outdir.exists():
        shutil.rmtree(outdir)
    config = load_config(input_dir / "config.yaml")
    if workloads.WORKLOADS[name] == "synth":
        run_synth(config, outdir)
    else:
        results = run_pipeline(config, outdir)
        failed = [r.name for r in results if r.status != "ok"]
        if failed:
            raise SystemExit(f"{name}: stages failed: {failed}")
    checker.write_reference(HERE / "reference" / f"{name}.json.gz",
                            workloads.DEFAULT_SEED, outdir)
    shutil.rmtree(outdir)


def main(argv):
    names = argv[1:] or list(workloads.WORKLOADS)
    for name in names:
        record(name, HERE.parent / ".perfbench")
        print(f"recorded {name}")


if __name__ == "__main__":
    main(sys.argv)
