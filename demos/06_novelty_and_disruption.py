"""Reference-pair rarity against a shuffled null, and disruptiveness.

The null model rewires the paper citation graph with double-edge swaps
stratified by the years at both edge ends, so degrees and timing are
exact. The swaps come in rounds: each round pairs up the edges of every
stratum at random and makes every proposed swap that adds no duplicate
or self edge. Journal pairs that co-appear in reference lists far more
often than the shuffled ensemble predicts get large positive z-scores;
negative scores mark rare, novel pairings.
"""

from citnet import ShuffleConfig, pair_zscores, paper_novelty, shuffle_edges
from citnet.disruption import disruption_table, disruptiveness_by_team_size
from citnet.synth import SynthConfig, generate_synthetic

corpus = generate_synthetic(SynthConfig(
    publisher_count=3, journals_per_publisher=2,
    component_size_range=(150, 200), out_degree_mean=6.0,
    out_degree_std=2.0, seed=13, year_range=(2000, 2004)))

config = ShuffleConfig(ensemble_count=10, swaps_per_edge=10.0, seed=2)

# Margins survive shuffling exactly. The shuffle runs on the corpus's
# integer graph, whose node v is paper ``corpus.ids[v]``; at 10 swaps
# per edge its 20 or so rounds move nearly every edge.
ids = corpus.ids
original = list(corpus.citation_edges())
src, dst = shuffle_edges(corpus.graph, config, replicate_index=0)
shuffled = [(ids[s], ids[t]) for s, t in zip(src.tolist(), dst.tolist())]
moved = sum(1 for a, b in zip(sorted(original), sorted(shuffled)) if a != b)
print(f"edges: {len(original)}, moved by shuffling: {moved}")

# Each replicate is seeded by (seed, replicate index); the replicates run
# in index order.
zscores = pair_zscores(corpus, config)
stats = zscores.stats()
defined = [s for s in stats.values() if s.z is not None]
print(f"journal pairs observed: {len(stats)}, with defined z: {len(defined)}")
extreme = sorted(defined, key=lambda s: s.z)
print("rarest pairing:", extreme[0].journal_pair,
      "z =", round(extreme[0].z, 2))
print("most conventional:", extreme[-1].journal_pair,
      "z =", round(extreme[-1].z, 2))

nov = next(n for n in paper_novelty(corpus, zscores)
           if n.defined_pair_count >= 3)
print(f"{nov.paper_id}: median z {nov.median_z:.2f}, 10th percentile {nov.p10_z:.2f} "
      f"over {nov.defined_pair_count} pairs")

# Disruptiveness: +1 when the follow-up literature drops the paper's
# sources, -1 when it always keeps them. One call counts every paper.
values = [(c.paper_id, c.value)
          for c in disruption_table(corpus, corpus.papers)]
defined = [(p, d) for p, d in values if d is not None]
print(f"papers with defined D: {len(defined)} of {len(values)}")
print("most disruptive:", max(defined, key=lambda x: x[1]))
by_size, skipped = disruptiveness_by_team_size(corpus, corpus.papers)
print("mean D by team size:", {k: round(v, 3) for k, v in by_size.items()},
      f"({skipped} undefined papers excluded)")
