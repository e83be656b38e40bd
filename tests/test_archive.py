"""Tests for the DSE archive and its Pareto analysis."""

import pytest

from repro.core import Pimsyn, SynthesisConfig
from repro.core.archive import (
    ArchiveEntry,
    DesignArchive,
    dominates,
    pareto_front,
)
from repro.errors import ConfigurationError
from repro.nn import lenet5


def _entry(throughput, power, **overrides):
    defaults = dict(
        ratio_rram=0.3, res_rram=2, xb_size=128, res_dac=1,
        wt_dup=(1,), throughput=throughput, power=power,
        tops_per_watt=throughput / max(power, 1e-9) * 1e-3,
        latency=1.0 / max(throughput, 1e-9), num_macros=1,
    )
    defaults.update(overrides)
    return ArchiveEntry(**defaults)


class TestDominance:
    def test_strict_dominance(self):
        assert dominates((2.0, 1.0), (1.0, 1.0))
        assert not dominates((1.0, 1.0), (1.0, 1.0))
        assert not dominates((2.0, 0.5), (1.0, 1.0))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            dominates((1.0,), (1.0, 2.0))

    def test_equal_vectors_never_dominate(self):
        """Regression: equal objective vectors must tie, not evict.

        A helper where ``dominates(a, a)`` is True makes every
        duplicated design point knock *itself* (and its twin) off the
        front. The helper is now the shared strict implementation in
        :mod:`repro.optim.dominance`; this pin keeps it that way.
        """
        for vector in ((0.0, 0.0), (1.5, -2.0), (3.0, 3.0, 3.0)):
            assert dominates(vector, vector) is False
        # Twins coexist through front extraction (then dedup to one).
        twins = [_entry(10.0, 2.0), _entry(10.0, 2.0)]
        front = pareto_front(twins)
        assert len(front) == 1
        assert front[0].throughput == 10.0

    def test_shared_helper_is_the_archive_helper(self):
        from repro.optim import dominance

        assert dominates is dominance.dominates

    def test_store_export_path_unaffected(self, tmp_path):
        """serve/store.py's ``to_archive`` -> ``pareto_front`` chain
        must survive duplicated (equal-vector) stored results."""
        from repro.serve.store import ResultStore

        store = ResultStore(tmp_path / "store")
        solution = {
            "design_point": {
                "ratio_rram": 0.3, "res_rram": 2, "xb_size": 128,
                "res_dac": 1,
            },
            "wt_dup": [1, 1], "num_macros": 3,
            "metrics": {
                "throughput_img_s": 100.0, "power_w": 2.0,
                "tops_per_watt": 0.05, "latency_s": 0.01,
            },
            "model": "toy",
        }
        for key in ("a" * 32, "b" * 32):  # two identical results
            store.put(key, {"schema": 1, "solution": solution})
        archive = store.to_archive()
        assert len(archive) == 2
        front = pareto_front(archive.entries)
        assert len(front) == 1  # deduplicated, not annihilated


class TestParetoFront:
    def test_extracts_non_dominated(self):
        entries = [
            _entry(100.0, 10.0),  # fast, hungry
            _entry(50.0, 4.0),  # balanced - non-dominated
            _entry(40.0, 8.0),  # dominated by both above
            _entry(10.0, 1.0),  # frugal
        ]
        front = pareto_front(entries)
        throughputs = [e.throughput for e in front]
        assert throughputs == [100.0, 50.0, 10.0]

    def test_single_entry(self):
        front = pareto_front([_entry(5.0, 5.0)])
        assert len(front) == 1

    def test_empty(self):
        assert pareto_front([]) == []

    def test_duplicate_points_deduplicated(self):
        entries = [_entry(10.0, 2.0), _entry(10.0, 2.0)]
        assert len(pareto_front(entries)) == 1


class TestDesignArchive:
    def test_records_during_synthesis(self):
        archive = DesignArchive(capacity=64)
        config = SynthesisConfig.fast(total_power=2.0, seed=51)
        solution = Pimsyn(lenet5(), config,
                          archive=archive).synthesize()
        assert len(archive) > 1
        assert archive.best().throughput == pytest.approx(
            solution.evaluation.throughput
        )

    def test_finalize_trims_and_sorts(self):
        archive = DesignArchive(capacity=2)
        for t in (1.0, 5.0, 3.0):
            archive.record(_entry(t, 1.0))
        top = archive.finalize()
        assert [e.throughput for e in top] == [5.0, 3.0]

    def test_capacity_validated(self):
        with pytest.raises(ConfigurationError):
            DesignArchive(capacity=0)

    def test_empty_best_rejected(self):
        with pytest.raises(ConfigurationError):
            DesignArchive().best()

    def test_pareto_from_real_archive(self):
        archive = DesignArchive(capacity=128)
        config = SynthesisConfig.fast(total_power=2.0, seed=52)
        Pimsyn(lenet5(), config, archive=archive).synthesize()
        front = pareto_front(archive.finalize())
        assert front
        # Every front member is genuinely non-dominated.
        for member in front:
            for other in archive.entries:
                assert not dominates(
                    (other.throughput, -other.power),
                    (member.throughput, -member.power),
                )

