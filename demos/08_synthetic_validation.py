"""End-to-end synthetic validation of the solidarity index.

A random labeled corpus is grown with Gaussian out-degrees and a
heavy-tailed in-degree by preferential attachment. Links are then
retargeted in seeded sweeps: one special journal per publisher keeps its
citations in-house with an elevated (or reduced) probability while
everyone else stays neutral at 1/5. The index rises for journals pushed
toward their publisher, falls for journals pushed away, and flattens
once rewiring passes about twice the link count.

The full-scale defaults (five publishers of 450 to 550 papers, degree 20,
twenty ensembles) run in under a minute; this demo uses a reduced setup
so it finishes in seconds. The pipeline command `citnet synth` writes
the same curves as CSVs.
"""

from dataclasses import replace

import numpy as np

from citnet.selfcite import solidarity_scores
from citnet.synth import (RewireConfig, SynthConfig, generate_synthetic,
                          psi_rewiring_experiment)

synth = SynthConfig(publisher_count=5, journals_per_publisher=3,
                    component_size_range=(150, 200), out_degree_mean=10.0,
                    out_degree_std=3.0, seed=21, year_range=(2000, 2005))

corpus = generate_synthetic(synth)
graph = corpus.graph
outs = np.bincount(graph.src, minlength=graph.n_nodes)
ins = np.bincount(graph.dst, minlength=graph.n_nodes)
print(f"papers {len(corpus.papers)}, mean out-degree {np.mean(outs):.2f}, "
      f"max in-degree {ins.max()}")

# Before any rewiring the five publishers are statistically alike: the
# psi of their journals pooled over five corpora of consecutive seeds.
pools = {}
for seed in range(synth.seed, synth.seed + 5):
    sample = generate_synthetic(replace(synth, seed=seed))
    for score in solidarity_scores(sample.graph):
        if score.psi is not None:
            publisher = sample.journals[score.journal_id].publisher_id
            pools.setdefault(publisher, []).append(score.psi)
for pub in sorted(pools):
    print(f"{pub}: mean psi {np.mean(pools[pub]):.6f} "
          f"over {len(pools[pub])} journal samples")

curves = psi_rewiring_experiment(
    synth, RewireConfig(ensemble_count=5, seed=22,
                        checkpoints=(0.5, 1.0, 2.0, 3.0)))
print("\ncheckpoint  " + "  ".join(f"{s}(r={r:g})" for s, r in curves.slots))
for cp in curves.checkpoints:
    row = "  ".join(f"{curves.mean_ratio(cp, slot):10.3f}"
                    for slot, _r in curves.slots)
    print(f"{cp:10.2f}  {row}")
print("\nratios above 1 mark journals whose in-house rate beat the "
      "neutral 1/5; below 1, journals pushed outward.")
