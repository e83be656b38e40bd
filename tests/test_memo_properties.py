"""Hypothesis invariants of the evaluation memo both EAs score through.

:func:`repro.optim.memo.score_through_memo` is the one body of memo
accounting behind :class:`repro.optim.evolution.EvolutionEngine` (float
fitness values) and :class:`repro.optim.nsga.NSGA2Engine` (objective
vector tuples). For any population, with any part of it already in the
memo:

- memo hits never reach ``score``;
- in-batch duplicates are scored once, in first-occurrence order, in at
  most one ``score`` call (none when nothing misses);
- ``hits + evaluations == len(genes)``;
- cached values are left untouched and fresh values are stored;
- a ``score`` that returns the wrong count raises
  :class:`ConfigurationError` and stores nothing.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.optim.evolution import EvolutionReport
from repro.optim.memo import score_through_memo
from repro.optim.nsga import NSGAReport

#: value kind -> (the engine report that counts it, a deterministic
#: scorer of one gene, a cached sentinel no scorer returns)
KINDS = {
    "float": (
        EvolutionReport,
        lambda gene: float(sum(gene)),
        lambda i: -1.0 - i,
    ),
    "tuple": (
        NSGAReport,
        lambda gene: (float(sum(gene)), -float(max(gene))),
        lambda i: (-1.0 - i, float(i)),
    ),
}

# Few distinct genes on purpose: duplicates and hits are the cases the
# accounting must get right.
genes_st = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=16,
)


def _context_key(gene):
    return ("context", gene)


@pytest.mark.parametrize("kind", sorted(KINDS))
@given(genes=genes_st, cached=st.integers(0, 16))
@settings(max_examples=80, deadline=None)
def test_memo_accounting(kind, genes, cached):
    report_type, value_of, sentinel = KINDS[kind]
    memo = {}
    for i, gene in enumerate(genes[:cached]):
        memo.setdefault(_context_key(gene), sentinel(i))
    before = dict(memo)
    calls = []

    def score(batch):
        calls.append(list(batch))
        return [value_of(gene) for gene in batch]

    report = report_type()
    values = score_through_memo(genes, score, memo, _context_key, report)

    misses = list(dict.fromkeys(
        gene for gene in genes if _context_key(gene) not in before
    ))
    assert calls == ([misses] if misses else [])
    assert report.evaluations == len(misses)
    assert report.cache_hits + report.evaluations == len(genes)
    for key, value in before.items():
        assert memo[key] is value
    for gene in misses:
        assert memo[_context_key(gene)] == value_of(gene)
    assert values == [memo[_context_key(gene)] for gene in genes]


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("surplus", [-1, 1])
def test_wrong_count_raises(kind, surplus):
    report_type, value_of, _sentinel = KINDS[kind]
    genes = [(1, 2), (3, 4), (1, 2)]

    def score(batch):
        values = [value_of(gene) for gene in batch]
        return values[:surplus] if surplus < 0 else values + values

    memo = {}
    report = report_type()
    with pytest.raises(ConfigurationError, match="score returned"):
        score_through_memo(genes, score, memo, _context_key, report)
    assert memo == {}
    assert report.evaluations == report.cache_hits == 0


@pytest.mark.parametrize("cached", [0.0, (0.0, 0.0), ()])
def test_a_falsy_cached_value_is_a_hit(cached):
    """The infeasible fitness ``0.0``, like any falsy value, is a
    stored value: served as a hit, never scored, never rewritten."""
    genes = [(1, 2), (3, 4), (1, 2)]
    memo = {_context_key((1, 2)): cached}
    calls = []

    def score(batch):
        calls.append(list(batch))
        return [float(sum(gene)) for gene in batch]

    report = EvolutionReport()
    values = score_through_memo(genes, score, memo, _context_key, report)
    assert calls == [[(3, 4)]]
    assert values == [cached, 7.0, cached]
    assert memo[_context_key((1, 2))] is cached
    assert (report.evaluations, report.cache_hits) == (1, 2)
