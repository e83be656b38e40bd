"""Batched population evaluator for the DSE hot path.

The EA of :mod:`repro.optim.evolution` and the DSE executor score one
gene at a time through :meth:`repro.core.macro_partition.
MacroPartitionExplorer.score` — a chain of pure-Python per-layer loops
(gene decode, Eq. 5/6 component allocation, the §IV-B pipeline timing
model). At population scale that is thousands of interpreter
round-trips per EA generation for what is, mathematically, a handful of
elementwise array formulas.

:class:`BatchPerformanceEvaluator` evaluates a whole population of
macro-partition genes in one pass, under a
:class:`repro.core.backend.PopulationContext` that holds every
gene-independent quantity of one or more (spec, budget, ResDAC) tasks,
one row each. The task grid builds the contexts
(:meth:`repro.core.grid_eval.GridBoundEvaluator.population_context`):
a DSE task runner builds one stacked context per chunk of lock-stepped
EA or NSGA-II launches (:meth:`BatchPerformanceEvaluator.over`), so
they score all their genes in one call, and
``BatchPerformanceEvaluator(spec, budget, res_dac)`` is the builder's
one-task case. The per-gene work — group sizing, fixed overhead, the
Eq. 6 balanced delay, the ADC-sharing post-pass, stage times, the
fine-grained pipeline latency and the power account — runs as the one
fused numpy kernel :func:`repro.core.backend.score_population`, whose
record, :class:`BatchEvaluation` (defined there and re-exported here
with its field lists :data:`BATCH_FIELDS` and :data:`DEFERRED_FIELDS`),
:meth:`BatchPerformanceEvaluator.evaluate_population` returns as is.
The kernel's call runs the stage pass, all the EA's fitness needs; the
record runs the pipeline latency and the power account only when one
of their fields is first read, as the winners' rows do.

Exactness contract
------------------
The batched path is a drop-in replacement for the scalar oracle, not an
approximation: every formula is evaluated with the *same operation
order* as the scalar code (`allocate_components` /
``PerformanceEvaluator.evaluate``), and IEEE-754 float64 arithmetic is
deterministic, so batched metrics are bit-identical to the scalar ones,
on every field, for every gene the decode accepts. Cross-layer
reductions that the scalar code performs as ordered sums
(:func:`repro.utils.mathutils.ordered_sum`) are likewise accumulated in
layer order. ``tests/test_batch_eval_differential.py`` pins the
contract across the entire model zoo, and full synthesis selects the
identical solution with numpy and without it (where the explorer scores
one gene at a time through the scalar oracle).

Both paths accept the same genes: the kernel's gene decode, and so
:meth:`BatchPerformanceEvaluator.evaluate_population`, raises
:class:`ConfigurationError` wherever ``MacroPartition.from_gene`` does,
including on an owner shared by two or more layers (rule b allows
pairs only).

Genes that the scalar path rejects with :class:`InfeasibleError`
(fixed overhead exceeding the peripheral budget, a collapsed
identical-macro budget) simply score ``0.0`` — the same fitness the
explorer assigns them.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import List, Optional, Sequence, Tuple

# The numpy gate is shared with every batched path (grid_eval, the SA
# filter) through repro.core.backend — one switch to stub or
# monkeypatch, not three. Call sites bind `np = numpy_module()` live
# (never a module-level snapshot) so patching the gate reaches every
# method uniformly. This module never imports numpy directly (an AST
# guard in tests/test_backend_conformance.py enforces that).
from repro.core.backend import (
    BATCH_FIELDS,
    DEFERRED_FIELDS,
    BatchEvaluation,
    PopulationContext,
    numpy_module,
    score_population,
)
from repro.core.design_space import DesignPoint
from repro.core.grid_eval import GridBoundEvaluator
from repro.errors import ConfigurationError
from repro.hardware.power import PowerBudget
from repro.ir.builder import DataflowSpec

Gene = Tuple[int, ...]


class BatchPerformanceEvaluator:
    """Scores whole gene populations for one (spec, budget, ResDAC), or
    for a chunk of tasks at once (:meth:`over` a stacked context).

    Parameters mirror the knobs :meth:`MacroPartitionExplorer.score`
    reads from :class:`repro.core.config.SynthesisConfig`:

    enable_macro_sharing:
        Apply rule-b sharing pairs (the scalar path passes ``()`` as
        ``sharing_pairs`` when disabled).
    identical_macros:
        Use the §V-C2 identical-macro allocation (the scalar
        ``identical_macros=not config.specialized_macros``).

    The context comes from a one-task grid
    (:meth:`~repro.core.grid_eval.GridBoundEvaluator.
    population_context`) over the spec's model, ``budget`` and
    ``res_dac``, with ``spec.params``.
    """

    def __init__(
        self,
        spec: DataflowSpec,
        budget: PowerBudget,
        res_dac: int,
        enable_macro_sharing: bool = True,
        identical_macros: bool = False,
    ) -> None:
        if numpy_module() is None:  # pragma: no cover - defensive gate
            raise ConfigurationError(
                "numpy is required for batched evaluation; without "
                "it, MacroPartitionExplorer scores genes one at a time "
                "through its scalar oracle"
            )
        from repro.core.executor import EvaluationTask  # import cycle

        # The settings a synthesis config gives the grid, from the
        # arguments and the budget.
        grid = GridBoundEvaluator(spec.model, SimpleNamespace(
            params=spec.params,
            total_power=budget.total_power,
            enable_macro_sharing=enable_macro_sharing,
            specialized_macros=not identical_macros,
        ))
        task = EvaluationTask(
            index=0,
            point=DesignPoint(
                ratio_rram=budget.ratio_rram, res_rram=budget.res_rram,
                xb_size=budget.xb_size, num_crossbars=budget.num_crossbars,
            ),
            wt_dup=tuple(spec.wt_dup),
            res_dac=res_dac,
        )
        self.context = grid.population_context(grid.build_grid([task]))

    @classmethod
    def over(cls, context: PopulationContext) -> "BatchPerformanceEvaluator":
        """The evaluator of ``context`` as built, e.g. a task runner's
        stacked chunk context: its :meth:`evaluate_population` scores
        each gene under the row its ``rows`` entry names."""
        evaluator = cls.__new__(cls)
        evaluator.context = context
        return evaluator

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def evaluate_population(
        self, genes: Sequence[Gene], rows: Optional[Sequence[int]] = None
    ) -> BatchEvaluation:
        """Score every gene; metrics are 0.0 where infeasible.

        ``rows`` names each gene's context row (a chunk's stacked
        context); without it every gene scores under row 0.
        """
        np = numpy_module()
        if len(genes) == 0:
            return BatchEvaluation.empty()
        genes_arr = np.asarray(genes, dtype=np.int64)
        ctx = self.context
        if genes_arr.ndim != 2 or genes_arr.shape[1] != ctx.num_layers:
            raise ConfigurationError(
                f"population shape {genes_arr.shape} does not match "
                f"{ctx.num_layers} layers"
            )
        if rows is not None:
            rows = np.asarray(rows, dtype=np.int64)
            if rows.shape != (len(genes_arr),) or not (
                0 <= rows.min() and rows.max() < ctx.num_rows
            ):
                raise ConfigurationError(
                    f"rows must name one of the {ctx.num_rows} "
                    f"context rows for each of {len(genes_arr)} genes"
                )
        return score_population(ctx, genes_arr, rows)

    def fitness_of(
        self, genes: Sequence[Gene], rows: Optional[Sequence[int]] = None
    ) -> List[float]:
        """EA-facing adapter: population fitness as plain floats."""
        return self.evaluate_population(genes, rows).fitness.tolist()
