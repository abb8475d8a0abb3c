"""Seeded inputs for the benchmark workloads.

Every workload starts from ``citnet.generate_synthetic`` and is then
relabelled here, on the benchmark's side: heavy-tailed journal sizes,
flagged journals, subject categories, serial numbers, a few references
to papers outside the corpus, and an author-name pool. The program under
test only ever sees the three interchange files and a run config.

The same (workload, seed, scale) gives byte-identical files. Files are
cached per (workload, seed, scale) under the cache directory the caller
passes, so a repeated run does not pay for generation again.
"""

from __future__ import annotations

import csv
import hashlib
import json
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

import citnet
from citnet import synth as synth_mod
from citnet.authors import normalize_name
from citnet.corpus import issn_check_digit

# Fixture weights from the package's own pipeline tests; the built-in
# defaults are placeholders that a pipeline run refuses.
AUTHOR_WEIGHTS = {"self_citation": 1.0, "shared_author": 0.5,
                  "shared_citation": 0.2, "shared_reference": 0.2}

_SYLLABLES = [c + v for c in "bdfghklmnprstvz" for v in "aeiou"]
_INITIALS = "ABCDEFGHJKLMNPRSTW"


# Workload name -> kind: "pipeline" runs run_pipeline on a generated
# corpus, "synth" runs run_synth. Why each exists is in BENCHMARK.json.
WORKLOADS = {
    "pipeline-large": "pipeline",
    "synth-rewire": "synth",
}

# The seed at which the checker compares outputs with the recorded
# reference.
DEFAULT_SEED = 1


def surname(index: int) -> str:
    """Distinct pronounceable surname for every non-negative index."""
    digits = []
    n = index
    for _ in range(3):
        n, d = divmod(n, len(_SYLLABLES))
        digits.append(_SYLLABLES[d])
    if n:
        raise ValueError("surname index out of range")
    return "".join(reversed(digits)).capitalize()


def raw_name(block: int, variant: int) -> str:
    """One of three raw spellings that all normalize to the same block."""
    last = surname(block)
    initial = _INITIALS[block % len(_INITIALS)]
    if variant == 0:
        return f"{last}, {initial}."
    if variant == 1:
        return f"{initial}. {last}"
    return f"{last.upper()}, {initial}"


def issn(code: int) -> str:
    digits = f"{code % 10_000_000:07d}"
    return f"{digits[:4]}-{digits[4:]}{issn_check_digit(digits)}"


def zipf_block_sizes(mentions: int, names: int, exponent: float,
                     cap: int) -> list[int]:
    """Deterministic name-block sizes summing to ``mentions``.

    Rank r gets a share proportional to r**-exponent, capped at ``cap``
    and at least one; the tail is trimmed or padded with singletons so
    the sizes add up exactly. The seed never changes these sizes, only
    which papers a block lands on.
    """
    weights = [r ** -exponent for r in range(1, names + 1)]
    total = sum(weights)
    sizes = [min(cap, max(1, round(mentions * w / total))) for w in weights]
    while sum(sizes) > mentions:
        excess = sum(sizes) - mentions
        if sizes[-1] <= excess:
            sizes.pop()
        else:
            sizes[-1] -= excess
    sizes.extend([1] * (mentions - sum(sizes)))
    return sizes


def quotas(n: int, weights) -> np.ndarray:
    """Largest-remainder split of n items by weight; ties go to low rank."""
    exact = n * np.asarray(weights)
    counts = np.floor(exact).astype(int)
    short = n - int(counts.sum())
    order = np.argsort(-(exact - counts), kind="stable")
    counts[order[:short]] += 1
    return counts


def deal_names(author_counts, block_sizes, rng) -> list[list[int]]:
    """Give paper i ``author_counts[i]`` distinct blocks, seeded.

    Block tokens are shuffled and dealt in order; a token that repeats a
    block already on the paper is swapped with the next token that does
    not, so block sizes stay exact.
    """
    tokens = np.repeat(np.arange(len(block_sizes)), block_sizes)
    tokens = tokens[rng.permutation(len(tokens))].tolist()
    out = []
    pos = 0
    for k in author_counts:
        mine: list[int] = []
        for _ in range(k):
            j = pos
            while j < len(tokens) and tokens[j] in mine:
                j += 1
            if j == len(tokens):
                break
            tokens[pos], tokens[j] = tokens[j], tokens[pos]
            mine.append(tokens[pos])
            pos += 1
        out.append(mine)
    return out


def _author_counts(n_papers, rng):
    counts = np.resize(np.array([1, 2, 3]), n_papers)
    return counts[rng.permutation(n_papers)].tolist()


# ---------------------------------------------------------------------------
# The corpus workload
# ---------------------------------------------------------------------------

PUBLISHERS = 8
JOURNAL_SIZE_EXPONENT = 1.4      # journal size ~ rank**-exponent
CATEGORIES = 4
YEAR_RANGE = (2012, 2016)
OUT_DEGREE = 6.0
FLAGGED = ((0, 0), (1, 0))       # (publisher, journal rank)
ZIPF_EXPONENT = 1.1


@dataclass(frozen=True)
class CorpusShape:
    papers: int
    journals_per_publisher: int
    surnames: int
    block_cap: int                   # papers in the largest name block


def corpus_shape(scale: float) -> CorpusShape:
    return CorpusShape(
        papers=max(400, int(4000 * scale)),
        journals_per_publisher=max(4, int(40 * min(1.0, scale * 4))),
        surnames=max(40, int(4000 * scale)),
        block_cap=max(10, int(100 * scale)))


def pipeline_config(seed: int) -> dict:
    lo, hi = YEAR_RANGE
    return {
        "corpus": {"papers": "papers.jsonl", "journals": "journals.csv",
                   "publishers": "publishers.csv"},
        "year_range": [lo, hi],
        "seed": seed,
        "threads": 2,
        "output": "out",
        "stages": ["impact", "matching", "selfcite", "jnet", "novelty",
                   "disruption", "authors"],
        "impact": {"years": [hi - 2, hi - 1, hi],
                   "reference_year": hi - 1, "market_share": True},
        "matching": {"impact_kind": "normalized"},
        "selfcite": {"window": None, "include_self_journal": True},
        # one window, both link types, inside [lo, hi]
        "jnet": {"year": hi - 2, "windows": [2],
                 "link_types": ["citation", "reference"]},
        "novelty": {"ensemble_count": 5, "swaps_per_edge": 5.0},
        "disruption": {"window": None, "by_journal": False},
        "authors": {"weights": dict(AUTHOR_WEIGHTS)},
    }


def build_corpus_files(seed: int, directory: Path, scale: float = 1.0
                       ) -> dict:
    """Write papers.jsonl, journals.csv, publishers.csv and config.yaml.

    Returns the size record of the generated input.
    """
    shape = corpus_shape(scale)
    per_publisher = shape.papers / PUBLISHERS
    base = citnet.generate_synthetic(citnet.SynthConfig(
        publisher_count=PUBLISHERS, journals_per_publisher=4,
        component_size_range=(int(per_publisher * 0.95),
                              int(per_publisher * 1.05)),
        out_degree_mean=OUT_DEGREE, out_degree_std=2.0,
        in_degree_exponent=3.0, seed=seed, year_range=YEAR_RANGE))
    rng = np.random.default_rng([seed, 7919])
    pids = sorted(base.papers)
    pub_index = {p: i for i, p in enumerate(sorted(base.publishers))}

    # Journals: publisher p owns journals ranked 1..J with sizes falling
    # as rank**-exponent, so small journals make up the tail. Each
    # (publisher, year) is split by exact quotas, so journal sizes, and
    # with them the journal networks, barely move between seeds; the seed
    # picks which papers land where.
    jpp = shape.journals_per_publisher
    weights = np.array([(r + 1) ** -JOURNAL_SIZE_EXPONENT
                        for r in range(jpp)])
    weights /= weights.sum()
    journal_ids = [[f"P{p + 1}-J{r + 1:03d}" for r in range(jpp)]
                   for p in range(PUBLISHERS)]
    flagged = {journal_ids[p][r] for p, r in FLAGGED}
    groups: dict[tuple[int, int], list[str]] = {}
    for pid in pids:
        paper = base.papers[pid]
        p = pub_index[base.journals[paper.journal_id].publisher_id]
        groups.setdefault((p, paper.year), []).append(pid)
    journal_of = {}
    for (p, _year), members in sorted(groups.items()):
        order = rng.permutation(len(members))
        ranks = np.repeat(np.arange(jpp), quotas(len(members), weights))
        for k, r in zip(order, ranks):
            journal_of[members[k]] = journal_ids[p][int(r)]

    # A few references point outside the corpus, as real reference lists do.
    dangling = set(rng.choice(len(pids), size=max(1, len(pids) // 100),
                              replace=False).tolist())

    # Surnames follow a Zipf law, so a few name blocks hold up to
    # block_cap papers each, as common surnames do in real data.
    counts = _author_counts(len(pids), rng)
    mentions = sum(counts)
    blocks = zipf_block_sizes(mentions, shape.surnames, ZIPF_EXPONENT,
                              shape.block_cap)
    dealt = deal_names(counts, blocks, rng)
    variants = rng.integers(0, 3, size=mentions).tolist()

    directory.mkdir(parents=True, exist_ok=True)
    block_papers: dict[str, int] = {}
    edges = 0
    v = 0
    with (directory / "papers.jsonl").open("w", encoding="utf-8") as fh:
        for i, pid in enumerate(pids):
            paper = base.papers[pid]
            refs = list(paper.references)
            edges += len(refs)
            if i in dangling:
                refs.append(f"ext{i:06d}")
            names = []
            for block in dealt[i]:
                names.append(raw_name(block, variants[v]))
                v += 1
            for key in {normalize_name(n) for n in names}:
                block_papers[key] = block_papers.get(key, 0) + 1
            fh.write(json.dumps({
                "paper_id": pid, "journal_id": journal_of[pid],
                "year": paper.year, "author_keys": sorted(names),
                "references": refs}, sort_keys=True) + "\n")

    with (directory / "journals.csv").open("w", newline="",
                                           encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["journal_id", "issns", "publisher_id", "categories",
                         "questionable_flag"])
        k = 0
        for p in range(PUBLISHERS):
            for r, jid in enumerate(journal_ids[p]):
                cats = [f"{11 + (p + r) % CATEGORIES}"]
                if r % 3 == 2:
                    cats.append(f"{11 + (p + r + 1) % CATEGORIES}")
                issns = [issn(1000 * k + 17)]
                if r % 2:
                    issns.append(issn(1000 * k + 503))
                writer.writerow([jid, "|".join(issns), f"P{p + 1}",
                                 "|".join(cats),
                                 "true" if jid in flagged else "false"])
                k += 1

    with (directory / "publishers.csv").open("w", newline="",
                                             encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["publisher_id", "name"])
        for p in range(PUBLISHERS):
            writer.writerow([f"P{p + 1}", f"Publisher {p + 1}"])

    config = pipeline_config(seed)
    with (directory / "config.yaml").open("w", encoding="utf-8") as fh:
        yaml.safe_dump(config, fh, sort_keys=True)

    jnet_year = config["jnet"]["year"]
    return {
        "papers": len(pids),
        "edges": edges,
        "dangling_refs": len(dangling),
        "journals": PUBLISHERS * jpp,
        "jnet_nodes": len({journal_of[p] for p in pids
                           if base.papers[p].year == jnet_year}),
        "largest_block": max(block_papers.values()),
        "flagged": sorted(flagged),
    }


# ---------------------------------------------------------------------------
# Synthetic-validation workload
# ---------------------------------------------------------------------------


def synth_section(scale: float) -> dict:
    section = {"rewire_fraction": 3.0,
               "ensemble_count": max(1, int(round(2 * min(1.0, scale * 4))))}
    if scale < 1.0:
        size = max(20, int(500 * scale))
        section["component_size_range"] = [size - size // 10,
                                           size + size // 10]
    return section


def build_synth_files(seed: int, directory: Path, scale: float = 1.0) -> dict:
    """Write config.yaml for ``run_synth``; return the generated sizes.

    The edge count is taken from the same ensemble networks the rewiring
    experiment generates, (seed, ensemble index) for each.
    """
    section = synth_section(scale)
    directory.mkdir(parents=True, exist_ok=True)
    config = {"seed": seed, "output": "out", "synth": section}
    with (directory / "config.yaml").open("w", encoding="utf-8") as fh:
        yaml.safe_dump(config, fh, sort_keys=True)

    size_range = tuple(section.get("component_size_range", (450, 550)))
    synth_cfg = citnet.SynthConfig(component_size_range=size_range, seed=seed)
    papers = edges = 0
    for ens in range(section["ensemble_count"]):
        net = synth_mod._generate_network(
            synth_cfg, np.random.default_rng([seed, ens]))
        papers += net.n_nodes
        edges += len(net.src)
    return {"papers": papers, "edges": edges,
            "ensembles": section["ensemble_count"],
            "rewire_fraction": section["rewire_fraction"]}


def build(workload: str, seed: int, cache_dir: Path, scale: float = 1.0
          ) -> tuple[Path, dict]:
    """Generated input directory and its size record, cached.

    The cache key includes a digest of this file, so a changed generator
    never reuses inputs an earlier version wrote.
    """
    version = hashlib.sha256(Path(__file__).read_bytes()).hexdigest()[:12]
    directory = (Path(cache_dir)
                 / f"{workload}-s{seed}-x{scale:g}-{version}")
    sizes_path = directory / "sizes.json"
    if sizes_path.exists():
        return directory, json.loads(sizes_path.read_text(encoding="utf-8"))
    if directory.exists():
        shutil.rmtree(directory)       # a half-written earlier attempt
    if WORKLOADS[workload] == "synth":
        sizes = build_synth_files(seed, directory, scale)
    else:
        sizes = build_corpus_files(seed, directory, scale)
    sizes_path.write_text(json.dumps(sizes, sort_keys=True) + "\n",
                          encoding="utf-8")
    return directory, sizes
