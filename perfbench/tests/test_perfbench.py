"""Smoke tests of the benchmark at a tiny input size.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil

import pytest

import checker
import run
import workloads

TINY = 0.1


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic(tmp_path, workload):
    a, sizes_a = workloads.build(workload, 5, tmp_path / "a", TINY)
    b, sizes_b = workloads.build(workload, 5, tmp_path / "b", TINY)
    c, _ = workloads.build(workload, 6, tmp_path / "c", TINY)
    assert sizes_a == sizes_b
    assert _files(a) == _files(b)
    if workloads.WORKLOADS[workload] == "pipeline":
        assert _files(a)["papers.jsonl"] != _files(c)["papers.jsonl"]


def test_zipf_blocks_are_capped_and_exact():
    sizes = workloads.zipf_block_sizes(6000, 3000, 1.1, 150)
    assert sum(sizes) == 6000
    assert max(sizes) == 150
    assert sizes == sorted(sizes, reverse=True)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--scale", str(TINY)])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    summary = json.loads(lines[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0
    wanted = run.PER_LAYER if trace else run.END_TO_END
    assert set(summary["metrics"]) == set(wanted)
    for name, unit in wanted.items():
        assert summary["metrics"][name]["unit"] == unit
        assert any(line.startswith(f"{name} ") for line in lines)
    if not trace:
        assert all(m["value"] > 0 for m in summary["metrics"].values())


def _tiny_outputs(workload):
    run.main(["--workload", workload, "--seed", "4", "--seconds", "0",
              "--trace", "0", "--scale", str(TINY)])
    run_dir = run.STATE / "runs" / f"{workload}-s4-t0"
    input_dir, _sizes = workloads.build(workload, 4, run.STATE / "inputs",
                                        TINY)
    return run_dir / "rep0", input_dir


def test_checker_catches_broken_outputs(tmp_path):
    outdir, input_dir = _tiny_outputs("pipeline-large")
    broken = tmp_path / "out"
    shutil.copytree(outdir, broken)
    assert all(msg is None for _n, msg in
               checker.invariant_checks("pipeline", broken, input_dir))

    rows = (broken / "disruption.csv").read_text().splitlines()
    (broken / "disruption.csv").write_text("\n".join(rows[:-1]) + "\n")
    pr = sorted(broken.glob("centrality_PR_*.csv"))[0]
    lines = pr.read_text().splitlines()
    jid, score = lines[1].split(",")
    lines[1] = f"{jid},{float(score) * 1.5!r}"
    pr.write_text("\n".join(lines) + "\n")
    failed = {name for name, msg in
              checker.invariant_checks("pipeline", broken, input_dir) if msg}
    assert failed == {"invariant:disruption_rows", "invariant:pagerank_sum"}


def test_reference_comparison_tolerance():
    want = "id,score,n\na,0.1,3\n"
    assert checker.compare_csv("x", "id,score,n\na,0.10000000000000003,3\n",
                               want) is None
    assert checker.compare_csv("x", "id,score,n\na,0.1000001,3\n", want)
    assert checker.compare_csv("x", "id,score,n\na,0.1,4\n", want)
    assert checker.compare_csv("x", "id,score,n\nb,0.1,3\n", want)


def test_refuses_to_run_without_source_tree(tmp_path):
    import subprocess
    import sys
    bench = tmp_path / "perfbench"
    shutil.copytree(run.HERE, bench,
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pipeline-large",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
