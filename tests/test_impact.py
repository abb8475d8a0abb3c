from dataclasses import astuple
from fractions import Fraction

import pytest

from citnet.impact import (NormalizationTable, build_normalization_table,
                           impact_table, market_shares)
from citnet.matching import build_registry

from conftest import make_corpus, messy_corpus
from oracles import (cited_half_life_reference, citing_half_life_reference,
                     immediacy_reference, impact_table_reference,
                     journal_impact_reference, market_share_oracle,
                     normalization_reference, normalized_impact_reference)


def row(corpus, journal_id, year, table=None):
    """impact_table's row of one journal and year."""
    return next(r for r in impact_table(corpus, (year,), table)
                if r.journal_id == journal_id)


def impact_fixture():
    """J1 publishes 5 papers over 2003-2004; 10 citations arrive in 2005."""
    papers = [(f"w{i}", "J1", 2003 + (i % 2), []) for i in range(5)]
    citers = [(f"c{i}", "J2", 2005, [f"w{i % 5}", f"w{(i + 1) % 5}"])
              for i in range(5)]
    return make_corpus(papers + citers,
                       {"J1": {"publisher_id": "P1"},
                        "J2": {"publisher_id": "P2"}})


def test_journal_impact_direct_quotient():
    corpus = impact_fixture()
    assert row(corpus, "J1", 2005).impact == Fraction(10, 5) == 2
    assert float(row(corpus, "J1", 2005).impact) == 2.0


def test_journal_impact_zero_numerator():
    corpus = make_corpus([(f"w{i}", "J1", 2003, []) for i in range(5)],
                         {"J1": {}})
    assert row(corpus, "J1", 2005).impact == 0


def test_journal_impact_undefined_without_window_papers():
    corpus = impact_fixture()
    assert row(corpus, "J1", 2002).impact is None


def test_impact_invariant_under_load_order():
    papers = [("a", "J1", 2003, []), ("b", "J1", 2004, []),
              ("c", "J2", 2005, ["a", "b"])]
    journals = {"J1": {}, "J2": {}}
    forward = make_corpus(papers, journals)
    backward = make_corpus(list(reversed(papers)), journals)
    assert row(forward, "J1", 2005).impact == \
        row(backward, "J1", 2005).impact


def cited_window_fixture(citations):
    """J1's one 2009 paper receives ``citations`` citations in 2010 and
    ``citations`` in 2011, so its impact is that count in both years."""
    papers = [("w", "J1", 2009, [])]
    papers += [(f"c{year}_{i}", "J2", year, ["w"])
               for year in (2010, 2011) for i in range(citations)]
    return make_corpus(papers, {"J1": {}, "J2": {}})


def test_normalize_citations():
    table = NormalizationTable(reference_year=2011,
                               n_top={2010: 500, 2011: 1000})
    for count in (0, 1, 7, 123):
        corpus = cited_window_fixture(count)
        assert row(corpus, "J1", 2011, table).normalized_impact == count
        assert row(corpus, "J1", 2010, table).normalized_impact == 2 * count
        # a year the table does not cover has no normalized impact
        uncovered = row(corpus, "J1", 2010,
                        NormalizationTable(reference_year=2011,
                                           n_top={2011: 10}))
        assert uncovered.impact == count
        assert uncovered.normalized_impact is None
    # the impact table's formula, count * n_ref / n_y, to the last bit
    thirds = NormalizationTable(reference_year=2011,
                                n_top={2010: 3, 2011: 10})
    assert row(cited_window_fixture(7), "J1", 2010, thirds) \
        .normalized_impact == 23.333333333333332


def test_normalization_table_invariants():
    with pytest.raises(ValueError):
        NormalizationTable(reference_year=2017, n_top={2016: 10})
    with pytest.raises(ValueError):
        NormalizationTable(reference_year=2017, n_top={2017: 0})


def test_build_normalization_table_picks_top_cited_field():
    # category 20 receives 3 citations in 2010, category 10 only 1
    papers = [("a", "J1", 2008, []), ("b", "J2", 2008, []),
              ("c", "J2", 2009, []),
              ("x", "J1", 2010, ["b", "c"]), ("y", "J2", 2010, ["b", "a"])]
    corpus = make_corpus(papers, {"J1": {"categories": ("10",)},
                                  "J2": {"categories": ("20",)}})
    table = build_normalization_table(corpus, reference_year=2010)
    assert table.top_field == "20"
    # category-20 articles per year: 2008 -> 1, 2009 -> 1, 2010 -> 1
    assert table.n_top == {2008: 1, 2009: 1, 2010: 1}
    record = row(corpus, "J2", 2010, table)
    assert record.normalized_impact == pytest.approx(float(record.impact))


def test_citations_to_uncategorized_journals_count_for_no_field():
    # the one citation of 2010 lands in J2, which has no category; J1's
    # field received none and is no candidate
    papers = [("a", "J1", 2008, []), ("b", "J2", 2008, []),
              ("y", "J1", 2010, ["b"])]
    corpus = make_corpus(papers, {"J1": {"categories": ("20",)},
                                  "J2": {"categories": ()}})
    with pytest.raises(ValueError, match="no citations received in 2010"):
        build_normalization_table(corpus, reference_year=2010)
    with pytest.raises(ValueError, match="no citations received in 2010"):
        normalization_reference(corpus, 2010)


def test_immediacy():
    papers = [(f"p{i}", "J1", 2005, []) for i in range(4)]
    citers = [(f"c{i}", "J2", 2005, [f"p{i % 4}", f"p{(i + 1) % 4}"])
              for i in range(3)]
    corpus = make_corpus(papers + citers, {"J1": {}, "J2": {}})
    assert row(corpus, "J1", 2005).immediacy == 6 / 4
    assert row(corpus, "J2", 2005).immediacy == 0.0
    assert row(corpus, "J1", 2004).immediacy is None


def test_half_lives_median_midpoint():
    # cited ages seen from 2010: 1, 2, 3, 10
    papers = [("a", "J1", 2009, []), ("b", "J1", 2008, []),
              ("c", "J1", 2007, []), ("d", "J1", 2000, []),
              ("r1", "J2", 2010, ["a", "b"]), ("r2", "J2", 2010, ["c", "d"])]
    corpus = make_corpus(papers, {"J1": {}, "J2": {}})
    assert row(corpus, "J1", 2010).cited_half_life == 2.5
    assert row(corpus, "J2", 2010).citing_half_life == 2.5
    assert row(corpus, "J2", 2010).cited_half_life is None


def test_half_life_single_value():
    corpus = make_corpus([("a", "J1", 2006, []), ("r", "J2", 2010, ["a"])],
                         {"J1": {}, "J2": {}})
    assert row(corpus, "J1", 2010).cited_half_life == 4.0
    assert row(corpus, "J2", 2010).citing_half_life == 4.0


def test_half_life_within_age_bounds():
    corpus = impact_fixture()
    value = row(corpus, "J1", 2005).cited_half_life
    assert 1 <= value <= 2  # papers from 2003/2004 cited in 2005


def test_market_share_partition():
    papers = ([(f"a{i}", "J1", 2005, []) for i in range(5)]
              + [(f"b{i}", "J2", 2005, []) for i in range(10)]
              + [(f"c{i}", "J3", 2005, []) for i in range(5)])
    corpus = make_corpus(papers, {"J1": {"publisher_id": "P1"},
                                  "J2": {"publisher_id": "P2"},
                                  "J3": {"publisher_id": "P2"}})
    shares = market_shares(corpus, (2004, 2005))
    assert shares[("P1", 2005)] == 0.25
    assert shares[("P2", 2005)] == 0.75
    total = sum(shares[(p, 2005)] for p in corpus.publishers)
    assert total == pytest.approx(1.0, abs=1e-9)
    assert ("P1", 2004) not in shares       # no article of 2004


def test_market_share_equals_scan_reference(pipeline_corpus):
    # J9 has no publisher and JX is no journal: neither paper counts
    partition = make_corpus(
        [("a", "J1", 2005, []), ("b", "J2", 2005, []), ("c", "J9", 2005, []),
         ("d", "JX", 2005, []), ("e", "J1", 2006, []), ("f", "J9", 2004, [])],
        {"J1": {"publisher_id": "P1"}, "J2": {"publisher_id": "P2"},
         "J9": {}})
    for corpus, years in ((pipeline_corpus, range(1999, 2005)),
                          (partition, (2004, 2005, 2006))):
        shares = market_shares(corpus, years)
        for year in years:
            for pub in corpus.publishers:
                expected = market_share_oracle(corpus, pub, year)
                assert shares.get((pub, year)) == expected
            assert ("unknown", year) not in shares
        assert {year for _pub, year in shares} < set(years)


def test_market_share_sole_publisher():
    corpus = make_corpus([("a", "J1", 2005, [])],
                         {"J1": {"publisher_id": "P1"}})
    assert market_shares(corpus, (2005,)) == {("P1", 2005): 1.0}


def assert_table_equals_reference(corpus, years, reference_years):
    """impact_table and the normalization table, repr-equal to the
    references, with a table from each reference year that has one."""
    tables = [None]
    for ref_year in reference_years:
        try:
            expected = normalization_reference(corpus, ref_year)
        except ValueError:
            with pytest.raises(ValueError):
                build_normalization_table(corpus, ref_year)
            continue
        table = build_normalization_table(corpus, ref_year)
        assert (table.top_field, table.n_top) == expected
        tables.append(table)
    assert len(tables) > 1
    for table in tables:
        got = [astuple(r) for r in impact_table(corpus, years, table)]
        assert repr(got) == repr(impact_table_reference(corpus, years, table))


@pytest.mark.parametrize("seed", range(4))
def test_impact_table_equals_reference_on_messy_corpus(seed):
    # papers over 2000-2010 in registered, publisher-less and unregistered
    # journals, with self, repeated and dangling references
    corpus = messy_corpus(seed)
    assert_table_equals_reference(corpus, range(1998, 2013),
                                  (1999, 2002, 2010))


def test_impact_table_equals_reference_on_pipeline_corpus(pipeline_corpus):
    assert_table_equals_reference(pipeline_corpus, range(1999, 2005),
                                  (2001, 2002, 2003))


def test_per_journal_metrics_equal_references():
    corpus = messy_corpus(2)
    table = build_normalization_table(corpus, 2006)
    records = impact_table(corpus, range(1999, 2012), table)
    assert len(records) == len(corpus.journals) * len(range(1999, 2012))
    for r in records:
        jid, year = r.journal_id, r.year
        raw = journal_impact_reference(corpus, jid, year)
        assert repr(r.impact) == repr(raw)
        assert repr(r.normalized_impact) == \
            repr(normalized_impact_reference(raw, year, table))
        for got, expected in (
                (r.immediacy, immediacy_reference),
                (r.cited_half_life, cited_half_life_reference),
                (r.citing_half_life, citing_half_life_reference)):
            assert repr(got) == repr(expected(corpus, jid, year))


@pytest.mark.parametrize("journal_id", ["X1", "nowhere"])
def test_per_journal_metrics_reject_unregistered_journal(journal_id):
    # X1 has papers but no journal record
    corpus = messy_corpus(0)
    assert any(p.journal_id == "X1" for p in corpus.papers.values())
    assert journal_id not in {r.journal_id
                              for r in impact_table(corpus, (2005,))}


@pytest.mark.parametrize("kind", ["raw", "normalized"])
def test_registry_impacts_equal_references(kind):
    corpus = messy_corpus(3)
    table = build_normalization_table(corpus, 2008)
    for year in (2001, 2008, 2012):
        registry = build_registry(corpus, impact_table(corpus, (year,), table),
                                  impact_kind=kind)
        assert sorted(registry) == sorted(corpus.journals)
        for jid, entry in registry.items():
            raw = journal_impact_reference(corpus, jid, year)
            expected = (normalized_impact_reference(raw, year, table)
                        if kind == "normalized"
                        else None if raw is None else float(raw))
            assert repr(entry.impact) == repr(expected)
