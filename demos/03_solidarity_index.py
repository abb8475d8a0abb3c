"""Citation rates, publisher expectations, and the solidarity index.

The solidarity index compares how much a journal cites its own publisher
against how much the publisher cites the journal back, each normalized
by the publisher-wide expectation, and divides by the publisher's paper
total so that big houses are not penalized for being big. Values well
above the journal's peers flag publisher-directed citation pushing.
"""

from citnet import aggregate_citation_counts, share, solidarity_scores
from citnet.synth import SynthConfig, generate_synthetic, psi_scenarios

corpus = generate_synthetic(SynthConfig(
    publisher_count=3, journals_per_publisher=3,
    component_size_range=(200, 260), out_degree_mean=8.0,
    out_degree_std=2.0, seed=4, year_range=(2000, 2004)))

# Every rate is one share of the journal-to-journal count table, tallied
# from the corpus's citation graph.
table = aggregate_citation_counts(corpus.graph)
jid, publisher = "P1-J1", corpus.publisher_journals["P1"]
print("share of references into own publisher:",
      round(share(table, [jid], publisher), 4))
print("share of citations received from it:",
      round(share(table, [jid], publisher, received=True), 4))

# The same share taken over the publisher's own journals is what the
# publisher as a whole keeps in house: the expectations Q_r and Q_c.
q_r = share(table, publisher, publisher)
q_c = share(table, publisher, publisher, received=True)
print(f"publisher-wide expectations: q_r={q_r:.4f} q_c={q_c:.4f}")

scores = {s.journal_id: s for s in solidarity_scores(corpus.graph, table)}
for j, s in scores.items():
    print(f"{j}: psi={s.psi:.6f} (publisher papers {s.publisher_paper_total})")

# A flagged journal is judged by its ratio against a matched control;
# above 1 means the flagged journal leans harder on its publisher.
print("ratio P1-J1 vs P2-J1:",
      round(scores["P1-J1"].psi / scores["P2-J1"].psi, 4))

# Closed-form sweeps show the index's designed responses: it climbs when
# a journal directs ever more citations at its publisher (fastest when
# those dominate the publisher's internal exchange) and falls when the
# flow is inbound instead.
for scenario in "abc":
    curve = psi_scenarios(scenario)
    direction = "rising" if curve[-1][1] > curve[0][1] else "falling"
    print(f"scenario {scenario}: {direction}, "
          f"ends at psi={curve[-1][1]:.6f}")
