"""The evaluation memo both evolutionary engines score through.

:class:`repro.optim.evolution.EvolutionEngine` and
:class:`repro.optim.nsga.NSGA2Engine` each take one population scorer,
``score(genes) -> values``, and memoize its values under a content key:
the searches re-visit genes, and every fresh value costs a full
component-allocation pass. Scoring consumes no randomness, so the memo
changes how many genes reach ``score``, never the walk.
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
    are served from the stored value. Each gene is one lookup:
    ``report.evaluations`` grows by the genes ``score`` computed and
    ``report.cache_hits`` by the rest, so the two add up to
    ``len(genes)``. A ``score`` that returns a different number of
    values than it was given genes raises :class:`ConfigurationError`.
    """
    keys = [key(gene) for gene in genes]
    misses: Dict[Hashable, Gene] = {}
    for gene, gene_key in zip(genes, keys):
        if gene_key not in memo and gene_key not in misses:
            misses[gene_key] = gene
    if misses:
        fresh = list(score(list(misses.values())))
        if len(fresh) != len(misses):
            raise ConfigurationError(
                f"score returned {len(fresh)} values for "
                f"{len(misses)} genes"
            )
        memo.update(zip(misses, fresh))
    report.evaluations += len(misses)
    report.cache_hits += len(genes) - len(misses)
    return [memo[gene_key] for gene_key in keys]
