"""Loading a corpus from interchange files and validating it.

A corpus is three files: papers as JSON lines, journals and publishers
as CSV. This walkthrough writes a tiny fixture, loads it, inspects the
citation graph, and shows what validation reports when records break
their invariants. It ends with the serial-number utilities used to build
journal registries from scraped text.
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from citnet import extract_issns, load_corpus, validate_corpus, validate_issn

workdir = Path(tempfile.mkdtemp(prefix="citnet-demo-"))

# Three papers in two journals; p1 cites the other two, plus one
# reference that resolves nowhere (a "dangling" edge).
papers = [
    {"paper_id": "p1", "journal_id": "J1", "year": 2004,
     "author_keys": ["kim, j"], "references": ["p2", "p3", "ghost"]},
    {"paper_id": "p2", "journal_id": "J2", "year": 2002,
     "author_keys": ["lee, s"], "references": []},
    {"paper_id": "p3", "journal_id": "J2", "year": 2003,
     "author_keys": ["kim, j", "lee, s"], "references": []},
]
(workdir / "papers.jsonl").write_text(
    "".join(json.dumps(p) + "\n" for p in papers), encoding="utf-8")
(workdir / "journals.csv").write_text(
    "journal_id,issns,publisher_id,categories,questionable_flag\n"
    "J1,0317-8471,PUB1,10|20,false\n"
    "J2,2434-561X,PUB1,10,true\n", encoding="utf-8")
(workdir / "publishers.csv").write_text(
    "publisher_id,name\nPUB1,Example House\n", encoding="utf-8")

corpus = load_corpus({"papers": workdir / "papers.jsonl",
                      "journals": workdir / "journals.csv",
                      "publishers": workdir / "publishers.csv"})

print("papers loaded:", len(corpus.papers))
graph = corpus.graph
print("papers (graph nodes):", corpus.ids)
print("in-degrees:", np.bincount(graph.dst, minlength=graph.n_nodes).tolist())
print("out-degrees:", np.bincount(graph.src, minlength=graph.n_nodes).tolist())
print("load report:", corpus.load_report.summary())

# The dangling reference was kept out of the graph but reported.
assert corpus.load_report.dangling_references == [("p1", "ghost")]

report = validate_corpus(corpus)
print("validation violations:", len(report.violations))

# Serial numbers: the checksum is a weighted mod-11 sum; the final
# character may be X, which encodes a check value of ten.
for candidate in ("0317-8471", "0317-8472", "2434-561X"):
    print(candidate, "->", validate_issn(candidate))

# Free-text scanning only trusts numbers announced by the ISSN keyword
# within a five-token window.
text = 'The journal (ISSN: 0317-8471, e-ISSN 2434-561X) appears in ...'
print("extracted:", extract_issns(text))
