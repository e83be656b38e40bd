"""The evaluation memo both evolutionary engines score through.

:class:`repro.optim.evolution.EvolutionEngine` and
:class:`repro.optim.nsga.NSGA2Engine` each take one population scorer,
``score(genes) -> values``, and memoize its values under a content key:
the searches re-visit genes, and every fresh value costs a full
component-allocation pass. Scoring consumes no randomness, so the memo
changes how many genes reach ``score``, never the walk. The DSE
executor lock-steps many EA launches
(:func:`repro.optim.evolution.evolve_together`) and scores their
genes through one call of the same memo body, each launch keeping its
own keys and counts.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Hashable,
    List,
    MutableMapping,
    Sequence,
    TypeVar,
)

from repro.errors import ConfigurationError

Gene = TypeVar("Gene")
Value = TypeVar("Value")

#: What ``memo.get`` returns for a missing key: no stored value is it,
#: so a falsy value such as the infeasible fitness ``0.0`` is a hit.
_MISSING = object()


def score_through_memo(
    genes: Sequence[Gene],
    score: Callable[[Sequence[Gene]], Sequence[Value]],
    memo: MutableMapping[Hashable, Value],
    key: Callable[[Gene], Hashable],
    report,
) -> List[Value]:
    """The values of ``genes``, scoring only the distinct memo misses.

    Genes whose key is in ``memo`` are served as stored and never reach
    ``score``. The first gene of each missing key goes to one ``score``
    call, in order, and its value is stored; later genes with that key
    are served from the stored value. Each gene is one lookup: it
    counts as an evaluation when ``score`` computed it and as a cache
    hit otherwise, so the two add up to ``len(genes)``. The counts go
    to ``report``; when ``genes`` mixes the genes of several searches,
    ``report`` is instead a function from a gene to its search's
    report, and a key one search misses counts as a hit for a later
    search in the same call, as if that search ran after the first. A
    ``score`` that returns a different number of values than it was
    given genes raises :class:`ConfigurationError`, and then nothing is
    stored or counted.

    Keys hash on every dict access, so each gene's key is looked up in
    ``memo`` once and each distinct miss written once.
    """
    values: List[Value] = []
    misses: Dict[Hashable, List[int]] = {}  # key -> its genes' positions
    for position, gene in enumerate(genes):
        gene_key = key(gene)
        value = memo.get(gene_key, _MISSING)
        if value is _MISSING:
            misses.setdefault(gene_key, []).append(position)
        values.append(value)
    if misses:
        fresh = list(score([genes[p[0]] for p in misses.values()]))
        if len(fresh) != len(misses):
            raise ConfigurationError(
                f"score returned {len(fresh)} values for "
                f"{len(misses)} genes"
            )
        for (gene_key, positions), value in zip(misses.items(), fresh):
            memo[gene_key] = value
            for position in positions:
                values[position] = value
    report_of = report if callable(report) else lambda _gene: report
    scored = {positions[0] for positions in misses.values()}
    for position, gene in enumerate(genes):
        if position in scored:
            report_of(gene).evaluations += 1
        else:
            report_of(gene).cache_hits += 1
    return values
