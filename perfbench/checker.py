"""Output checks, run outside the timed section.

Two kinds of check:

* outputs that use no random numbers are compared with a reference
  recorded from the package at each workload's default seed: ids,
  strings and integers must match exactly, floats within ``RTOL``
  (relative) or ``ATOL`` (absolute, for values at zero);
* every output, at any seed, is checked against invariants that hold
  whatever the seed: pair counts per paper, one disruption row per
  paper with D in [-1, 1], PageRank summing to 1, clusters partitioning
  the mentions that were not excluded, and one finite rewiring row per
  checkpoint and slot.

The checker reads the generated interchange files itself, with the
standard library, so it does not rely on the package's own loader.
"""

from __future__ import annotations

import csv
import gzip
import io
import json
import math
import re
from pathlib import Path

RTOL = 1e-9
ATOL = 1e-12

# Outputs whose bytes depend on the seed only through the generated input.
DETERMINISTIC = ("impact.csv", "market_share.csv", "matches.csv",
                 "solidarity.csv", "rates.csv", "network_*.csv",
                 "centrality_*.csv", "disruption.csv", "clusters.csv",
                 "author_stats.csv", "synth_psi_scenarios.csv")

_INT = re.compile(r"-?\d+\Z")
_FLOAT = re.compile(r"-?(\d+\.\d*|\d*\.\d+|\d+)([eE][-+]?\d+)?\Z|-?inf\Z|nan\Z")


def deterministic_outputs(outdir: Path) -> list[Path]:
    found = set()
    for pattern in DETERMINISTIC:
        found.update(Path(outdir).glob(pattern))
    return sorted(found)


def _cells_match(a: str, b: str) -> bool:
    if a == b:
        return True
    if _INT.match(a) or _INT.match(b):
        return False
    if not (_FLOAT.match(a) and _FLOAT.match(b)):
        return False
    x, y = float(a), float(b)
    return abs(x - y) <= ATOL + RTOL * max(abs(x), abs(y))


def compare_csv(name: str, got: str, want: str) -> str | None:
    """None when the two CSV texts agree under the tolerance rules."""
    got_rows = list(csv.reader(io.StringIO(got)))
    want_rows = list(csv.reader(io.StringIO(want)))
    if len(got_rows) != len(want_rows):
        return f"{name}: {len(got_rows)} rows, reference has {len(want_rows)}"
    for i, (g, w) in enumerate(zip(got_rows, want_rows)):
        if len(g) != len(w) or not all(map(_cells_match, g, w)):
            return f"{name}: row {i} is {g}, reference has {w}"
    return None


def load_reference(path: Path) -> dict:
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def write_reference(path: Path, seed: int, outdir: Path):
    files = {p.name: p.read_text(encoding="utf-8")
             for p in deterministic_outputs(outdir)}
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.GzipFile(path, "wb", mtime=0) as raw:
        raw.write(json.dumps({"seed": seed, "files": files},
                             sort_keys=True).encode("utf-8"))


def reference_checks(outdir: Path, reference: dict) -> list[tuple[str, str | None]]:
    got = {p.name: p for p in deterministic_outputs(outdir)}
    checks = []
    for name in sorted(set(got) | set(reference["files"])):
        if name not in got:
            checks.append((f"reference:{name}", f"{name}: output missing"))
        elif name not in reference["files"]:
            checks.append((f"reference:{name}",
                           f"{name}: not in the reference"))
        else:
            checks.append((f"reference:{name}", compare_csv(
                name, got[name].read_text(encoding="utf-8"),
                reference["files"][name])))
    return checks


# ---------------------------------------------------------------------------
# Invariants
# ---------------------------------------------------------------------------


def read_rows(path: Path) -> list[dict]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def read_papers(input_dir: Path) -> dict:
    papers = {}
    with (input_dir / "papers.jsonl").open(encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                obj = json.loads(line)
                papers[obj["paper_id"]] = obj
    return papers


def _resolved_refs(papers, pid):
    return [r for r in papers[pid]["references"] if r in papers and r != pid]


def check_novelty(outdir, papers):
    rows = {r["paper_id"]: r for r in read_rows(outdir / "novelty.csv")}
    for pid in sorted(papers):
        k = len(_resolved_refs(papers, pid))
        row = rows.pop(pid, None)
        if k < 2:
            if row is not None:
                return f"novelty: {pid} has {k} references but a row"
            continue
        if row is None:
            return f"novelty: no row for {pid}"
        pairs = int(row["defined_pair_count"]) + int(row["undefined_pair_count"])
        if pairs != math.comb(k, 2):
            return f"novelty: {pid} has {pairs} pairs, expected C({k},2)"
    if rows:
        return f"novelty: rows for unknown papers {sorted(rows)[:3]}"
    return None


def check_disruption(outdir, papers):
    rows = read_rows(outdir / "disruption.csv")
    ids = [r["paper_id"] for r in rows]
    if sorted(ids) != sorted(papers) or len(set(ids)) != len(ids):
        return "disruption: not exactly one row per paper"
    for r in rows:
        n_i, n_j, n_k = int(r["n_i"]), int(r["n_j"]), int(r["n_k"])
        total = n_i + n_j + n_k
        if r["D"] == "":
            if total:
                return f"disruption: {r['paper_id']} has counts but no D"
            continue
        d = float(r["D"])
        if not -1.0 <= d <= 1.0 or abs(d - (n_i - n_j) / total) > 1e-12:
            return f"disruption: {r['paper_id']} has D={d}"
    return None


def check_pagerank(outdir):
    files = sorted(Path(outdir).glob("centrality_PR_*.csv"))
    if not files:
        return "pagerank: no centrality_PR output"
    for path in files:
        total = math.fsum(float(r["score"]) for r in read_rows(path))
        if abs(total - 1.0) > 1e-9:
            return f"pagerank: {path.name} sums to {total!r}"
    return None


def check_clusters(outdir, papers):
    """Clusters partition every mention except the excluded ones.

    A mention may be missing only under the exclusion rule: it was alone
    in its cluster and its paper is single-authored and never cited.
    """
    mentions = {(key, pid) for pid, p in papers.items()
                for key in p["author_keys"]}
    cited = {r for pid in papers for r in _resolved_refs(papers, pid)}
    seen = set()
    for r in read_rows(outdir / "clusters.csv"):
        mention = (r["author_key"], r["paper_id"])
        if mention not in mentions:
            return f"clusters: {mention} is not a mention"
        if mention in seen:
            return f"clusters: {mention} appears twice"
        seen.add(mention)
    for key, pid in sorted(mentions - seen):
        if len(papers[pid]["author_keys"]) != 1 or pid in cited:
            return f"clusters: mention ({key}, {pid}) is missing"
    return None


def check_rewire(outdir, checkpoints, slots):
    rows = read_rows(outdir / "synth_psi_rewire.csv")
    keys = [(float(r["checkpoint"]), r["journal"]) for r in rows]
    want = [(c, s) for c in checkpoints for s in slots]
    if sorted(keys) != sorted(want):
        return (f"rewire: {len(rows)} rows, expected one per checkpoint and "
                f"slot ({len(want)})")
    for r in rows:
        for col in ("rate", "psi_ratio_mean", "psi_ratio_std"):
            if not math.isfinite(float(r[col])):
                return f"rewire: non-finite {col} in {r}"
    return None


def _guarded(check, *args):
    """A check's message; an output that is missing or unreadable fails."""
    try:
        return check(*args)
    except (OSError, KeyError, ValueError) as exc:
        return f"{check.__name__}: {type(exc).__name__}: {exc}"


def invariant_checks(kind: str, outdir: Path, input_dir: Path,
                     rewire_fraction: float = 3.0
                     ) -> list[tuple[str, str | None]]:
    outdir = Path(outdir)
    if kind == "synth":
        # imported here: the worker imports this module before it times
        # ``import citnet``
        from citnet.synth import DEFAULT_CHECKPOINTS, SynthConfig
        checkpoints = [c for c in DEFAULT_CHECKPOINTS
                       if c <= rewire_fraction + 1e-9]
        # one special-journal slot per publisher of the default config
        slots = [f"S{k + 1}" for k in range(SynthConfig().publisher_count)]
        return [("invariant:rewire_rows", _guarded(
            check_rewire, outdir, checkpoints, slots))]
    papers = read_papers(Path(input_dir))
    return [
        ("invariant:novelty_pairs", _guarded(check_novelty, outdir, papers)),
        ("invariant:disruption_rows",
         _guarded(check_disruption, outdir, papers)),
        ("invariant:pagerank_sum", _guarded(check_pagerank, outdir)),
        ("invariant:clusters_partition",
         _guarded(check_clusters, outdir, papers)),
    ]
