"""citnet: citation-network analytics over pluggable bibliographic corpora.

Submodules
----------
corpus      records, loading, validation, serial-number utilities
impact      journal-level citation timing metrics
selfcite    citation/reference rates and the publication solidarity index
matching    control-journal selection by category, impact, and size tercile
jnet        yearly journal citation networks and centralities
novelty     atypical reference-pair z-scores against a shuffled null
disruption  disruptiveness index and grouped averages
authors     author identity resolution and career statistics
synth       synthetic corpora and the solidarity validation protocol
config      the run settings: their defaults, checks and config files
pipeline    declarative multi-stage runs and figure-ready exports
"""

from .corpus import (Corpus, Journal, LoadReport, Paper, Publisher,
                     ValidationReport, extract_issns, load_corpus,
                     validate_corpus, validate_issn)
from .impact import (ImpactRecord, NormalizationTable,
                     build_normalization_table, impact_table, market_shares)
from .selfcite import (CitationCounts, RateQuery, SolidarityScore,
                       aggregate_citation_counts, share, solidarity_scores)
from .matching import MatchRecord, RegistryEntry, build_registry
from .jnet import (CentralityVector, JournalCitationNetwork,
                   build_journal_network, centrality_comparison, pagerank,
                   path_scores, pathcore)
from .novelty import (PairStatistics, PairZScores, PaperNovelty,
                      ShuffleConfig, pair_zscores, paper_novelty,
                      shuffle_edges)
from .disruption import DisruptionCounts, disruption_table, group_means
from .authors import (AuthorClusters, AuthorStats, SimilarityWeights,
                      author_demographics, disambiguate)
from .synth import (RewireConfig, SynthConfig, generate_synthetic,
                    psi_rewiring_experiment, psi_scenarios, rewire)

__version__ = "0.1.0"
