"""citnet benchmark: one seeded workload, timed, checked and reported.

    python3 perfbench/run.py --workload pipeline-large --seed 1 \\
        --seconds 50 --trace 0

Run from the root of a checkout of the repository; the package is
imported from its ``src/`` tree. The steps of one run:

1. build (or reuse) the workload's input files for this seed;
2. ``setup_s``: the slowest of ``SETUP_PROBES`` fresh interpreters, each
   timing what a user pays before a run (import + pre-flight);
3. the timed section, in a fresh worker process, repeats the workload
   (closed loop, one client) until ``--seconds`` is spent;
4. the output checks; every failed stage or check counts as failed.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` the worker alternates untraced and traced repetitions and
the last line reports the per-layer metrics. Every metric is also
printed on its own line, by name, with its unit. Working files go to
``.perfbench/`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

SETUP_PROBES = 9

STAGES = ("impact", "matching", "selfcite", "jnet", "novelty", "disruption",
          "authors")

END_TO_END = {"wall_s": "s", "setup_s": "s", "edges_per_s": "1/s",
              "peak_rss_mb": "MiB"}

# Per-layer metric -> unit. Each one's meaning, and the end-to-end metric
# and workload it should move, is tabulated in perfbench/README.md.
PER_LAYER = {
    "corpus.load_s": "s", "corpus.validate_s": "s", "corpus.papers": "count",
    "corpus.edges": "count", "corpus.dangling_refs": "count",
    "impact.table_s": "s", "impact.market_share_s": "s",
    "impact.market_share_calls": "count",
    "matching.match_s": "s", "matching.matched_frac": "ratio",
    "selfcite.count_table_s": "s", "selfcite.count_table_calls": "count",
    "selfcite.psi_s": "s", "selfcite.psi_calls": "count",
    "selfcite.rate_s": "s", "selfcite.psi_undefined_frac": "ratio",
    "jnet.build_s": "s", "jnet.betweenness_s": "s", "jnet.closeness_s": "s",
    "jnet.pagerank_s": "s", "jnet.pathcore_s": "s", "jnet.nodes": "count",
    "jnet.edges": "count",
    "novelty.shuffle_s": "s", "novelty.shuffle_calls": "count",
    "novelty.pair_count_s": "s", "novelty.zscore_self_s": "s",
    "novelty.paper_s": "s", "novelty.edges_moved_frac": "ratio",
    "novelty.undefined_pair_frac": "ratio",
    "disruption.counts_s": "s", "disruption.calls": "count",
    "disruption.undefined_frac": "ratio",
    "authors.disambiguate_s": "s", "authors.similarity_s": "s",
    "authors.similarity_calls": "count", "authors.merge_self_s": "s",
    "authors.largest_block": "count", "authors.excluded_mentions": "count",
    "authors.demographics_s": "s",
    "synth.generate_s": "s", "synth.rewire_steps_per_s": "1/s",
    "synth.experiment_s": "s", "synth.scenarios_s": "s",
    **{f"pipeline.stage.{s}_s": "s" for s in STAGES},
    "pipeline.write_s": "s", "pipeline.bytes_out": "B",
    "pipeline.self_s": "s",
    "process.cpu_s": "s", "process.cpu_util": "ratio",
    "trace.overhead_frac": "ratio",
}


class BenchError(RuntimeError):
    pass


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def _python(args, timeout):
    return subprocess.run([sys.executable, *map(str, args)], env=_env(),
                          capture_output=True, text=True, timeout=timeout)


def measure_setup(input_dir: Path, kind: str):
    """Setup seconds of each fresh-interpreter probe; None for a failure."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = _python([HERE / "worker.py", "setup", input_dir, kind], 120)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            out.append(None)
        else:
            out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def run_worker(input_dir: Path, kind: str, seconds: float, trace: bool,
               run_dir: Path) -> dict:
    """Run the timed section in one fresh worker process; its result.

    The worker's standard error goes to a file beside its result, so a
    chatty worker never stalls on a full pipe.
    """
    result = run_dir / "result.json"
    with (run_dir / "stderr.txt").open("w") as err:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), "run", str(input_dir),
             kind, str(seconds), str(int(trace)), str(result)],
            env=_env(), stdout=subprocess.DEVNULL, stderr=err)
        try:
            proc.wait(timeout=seconds + 150)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0:
        stderr = (run_dir / "stderr.txt").read_text()
        raise BenchError(f"worker failed:\n{stderr}")
    return json.loads(result.read_text(encoding="utf-8"))


def _median(values):
    return statistics.median(values) if values else 0.0


def slowest(values):
    """The slowest sample of one run; the end-to-end times report it.

    On the shared measuring machine a single-threaded process runs, for
    seconds to minutes at a time, in a slow state or in one up to 60%
    faster, and CPU time moves with wall time, so it is the processor
    that is slower, not waiting. How much of a run falls in the fast
    state is luck: the median of a run wanders with it, and medians of
    two sets of runs moved by a third. The slow state shows in nearly
    every run, and the slowest repetition follows it. A program that does
    less work still moves it.
    """
    return max(values) if values else 0.0


def stage_seconds(reps) -> dict:
    out = {}
    for stage in STAGES:
        values = [s["seconds"] for r in reps for s in r["stages"]
                  if s["name"] == stage]
        out[f"pipeline.stage.{stage}_s"] = _median(values)
    return out


def per_layer(reps, sizes) -> dict:
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    layers = {}
    for name in PER_LAYER:
        values = [r["layers"][name] for r in traced if name in r["layers"]]
        layers[name] = _median(values)
    layers.update(stage_seconds(plain))
    layers["authors.largest_block"] = sizes.get("largest_block", 0)
    wall = _median([r["wall_s"] for r in plain])
    cpu = _median([r["cpu_s"] for r in plain])
    layers["process.cpu_s"] = cpu
    layers["process.cpu_util"] = cpu / wall if wall else 0.0
    traced_wall = _median([r["layers"]["traced_wall_s"] for r in traced])
    layers["trace.overhead_frac"] = traced_wall / wall - 1.0 if wall else 0.0
    return layers


def run(workload: str, seed: int, seconds: float, trace: bool,
        scale: float = 1.0):
    """One run; returns (the summary for the last line, run details)."""
    import checker
    import workloads

    kind = workloads.WORKLOADS[workload]
    input_dir, sizes = workloads.build(workload, seed, STATE / "inputs",
                                       scale)
    run_dir = STATE / "runs" / f"{workload}-s{seed}-t{int(trace)}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)

    ops = []            # (operation, failure message or None)
    setups = measure_setup(input_dir, kind)
    ops += [(f"setup[{i}]", None if s is not None else "setup probe failed")
            for i, s in enumerate(setups)]
    result = run_worker(input_dir, kind, seconds, trace, run_dir)
    reps = result["reps"]
    for rep in reps:
        for stage in rep["stages"]:
            ops.append((f"rep{rep['index']}:{stage['name']}",
                        None if stage["status"] == "ok" else
                        f"stage {stage['name']} {stage['status']}: "
                        f"{stage['error']}"))
    digests = {r["digest"] for r in reps}
    ops.append(("repetitions_identical",
                None if len(digests) == 1 else
                "repetitions wrote different outputs"))
    outdir = run_dir / "rep0"
    ops += checker.invariant_checks(kind, outdir, input_dir,
                                    sizes.get("rewire_fraction", 3.0))
    ref_path = HERE / "reference" / f"{workload}.json.gz"
    if ref_path.exists() and scale == 1.0:
        reference = checker.load_reference(ref_path)
        # run_synth's only deterministic output, the scenario sweeps, uses
        # no seed at all, so it is compared at every seed
        if kind == "synth" or reference["seed"] == seed:
            ops += checker.reference_checks(outdir, reference)

    if trace:
        values = per_layer(reps, sizes)
        units = PER_LAYER
    else:
        plain = [r for r in reps if not r["traced"]]
        wall = slowest([r["wall_s"] for r in plain])
        values = {
            "wall_s": wall,
            "setup_s": slowest([s for s in setups if s is not None]),
            "edges_per_s": sizes["edges"] / wall,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = END_TO_END

    failures = [msg for _name, msg in ops if msg is not None]
    summary = {
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {k: {"value": values[k], "unit": units[k]}
                    for k in units},
    }
    info = {"workload": workload, "seed": seed, "sizes": sizes,
            "repetitions": len(reps),
            "walls_s": [r["wall_s"] for r in reps],
            "setups_s": setups, "failures": failures,
            "accounting": next((r["accounting"] for r in reversed(reps)
                                if "accounting" in r), {})}
    (run_dir / "summary.json").write_text(
        json.dumps({"summary": summary, "info": info}, indent=1,
                   sort_keys=True), encoding="utf-8")
    return summary, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor; below 1 for smoke tests")
    args = parser.parse_args(argv)

    if not (SRC / "citnet" / "__init__.py").is_file():
        sys.stderr.write(f"no citnet source tree at {SRC}; run from the root "
                         f"of a repository checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; known: "
                         f"{', '.join(workloads.WORKLOADS)}\n")
        return 2
    try:
        summary, info = run(args.workload, args.seed, args.seconds,
                            bool(args.trace), args.scale)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1

    print(f"workload {args.workload} seed {args.seed}: "
          f"{info['repetitions']} repetitions, sizes {info['sizes']}")
    for name, metric in summary["metrics"].items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(f"error_rate {summary['failed'] / summary['attempted']!r} ratio "
          f"({summary['failed']} of {summary['attempted']} operations)")
    for stage, (total, outside) in info["accounting"].items():
        print(f"stage {stage}: {total!r} s traced, {outside!r} s of it "
              f"outside the traced layers")
    for msg in info["failures"]:
        print(f"FAILED: {msg}")
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
