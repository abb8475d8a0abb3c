"""Journal-level citation timing metrics on a synthetic corpus.

Impact in year y counts citations arriving during y to the journal's
papers of the two prior years, per such paper. Normalization deflates
citation counts by the growth of the busiest field so that impacts from
different years can be compared. Undefined values are None, never 0.
"""

from citnet import build_normalization_table, impact_table, market_shares
from citnet.synth import SynthConfig, generate_synthetic

corpus = generate_synthetic(SynthConfig(
    publisher_count=3, journals_per_publisher=2,
    component_size_range=(300, 360), out_degree_mean=8.0,
    out_degree_std=2.0, seed=1, year_range=(2000, 2005)))

table = build_normalization_table(corpus, reference_year=2004)
print("reference field:", table.top_field)
print("articles per year in it:", table.n_top)

# One call gives every journal's row for the year, in journal id order.
year = 2003
rows = impact_table(corpus, (year,), table)
for r in rows[:4]:
    print(f"{r.journal_id}: impact {float(r.impact):.3f} (exact {r.impact}), "
          f"normalized {r.normalized_impact:.3f}")

# Same-year citation speed and the median ages of citations given and
# received. The medians use the midpoint convention for even counts.
first = rows[0]
print("immediacy:", first.immediacy)
print("cited half-life:", first.cited_half_life)
print("citing half-life:", first.citing_half_life)

# Market shares over all publishers partition the year's output.
shares = {pub: share
          for (pub, _y), share in market_shares(corpus, (year,)).items()}
print("market shares:", {p: round(s, 3) for p, s in shares.items()},
      "sum:", round(sum(shares.values()), 12))
