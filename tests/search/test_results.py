"""Tests for search result containers and metric extraction."""

import pytest

from repro.search.results import ExplorationResult, metric_value


class _Res:
    """Duck-typed stand-in exposing just what ``metric_value`` reads."""

    def __init__(self, exec_seconds=2.5e-6, exec_cycles=2500,
                 energy_pj=1.25e6, traffic=4096.0):
        self.exec_seconds = exec_seconds
        self.exec_cycles = exec_cycles
        self.energy_pj = energy_pj
        self._traffic = traffic

    def traffic_bytes(self):
        return self._traffic


class TestMetricValue:
    def test_exec_seconds(self):
        assert metric_value(_Res(), "exec_seconds") == 2.5e-6

    def test_cycles(self):
        # Regression: "cycles" is advertised by search(metric=...) but
        # metric_value used to fall through to the unknown-metric raise.
        assert metric_value(_Res(), "cycles") == 2500

    def test_traffic(self):
        assert metric_value(_Res(), "traffic") == 4096.0

    def test_energy(self):
        assert metric_value(_Res(), "energy") == 1.25e6

    def test_unknown_metric_raises(self):
        with pytest.raises(ValueError, match="unknown metric"):
            metric_value(_Res(), "watts")

    def test_ranking_by_cycles(self):
        fast = _Res(exec_cycles=100)
        slow = _Res(exec_cycles=900)
        result = ExplorationResult(candidates=[("slow", slow), ("fast", fast)])
        assert result.best(metric="cycles")[0] == "fast"


class TestSearchRunnerAcceptsCycles:
    def test_end_to_end_cycles_metric(self):
        from repro.search import search
        from repro.spec import load_spec
        from repro.workloads import uniform_random

        spec = load_spec(
            """
            einsum:
              declaration:
                A: [K, M]
                B: [K, N]
                Z: [M, N]
              expressions:
                - Z[m, n] = A[k, m] * B[k, n]
            mapping:
              partitioning:
                Z:
                  K: [uniform_occupancy(A.8)]
              loop-order:
                Z: [K1, M, N, K0]
            """,
            name="cycles-metric",
        )
        tensors = {
            "A": uniform_random("A", ["K", "M"], (32, 24), 0.2, seed=3),
            "B": uniform_random("B", ["K", "N"], (32, 20), 0.2, seed=4),
        }
        result = search(spec, tensors, metric="cycles", workers=1)
        cand, res = result.best(metric="cycles")
        assert res.exec_cycles == min(
            r.exec_cycles for _, r in result.candidates)


class TestSearchResultRanksByItsMetric:
    def test_best_ranked_and_table_default_to_the_search_metric(self):
        """Candidates of this space tie on exec_seconds but not on
        energy: an energy search's default ranking must be by energy,
        not the first candidate proposed."""
        from repro.search import search
        from repro.spec import load_spec
        from repro.workloads import uniform_random

        spec = load_spec(
            """
            einsum:
              declaration:
                A: [K, M]
                B: [K, N]
                Z: [M, N]
              expressions:
                - Z[m, n] = A[k, m] * B[k, n]
            """,
            name="energy-metric",
        )
        tensors = {
            "A": uniform_random("A", ["K", "M"], (32, 24), 0.2, seed=3),
            "B": uniform_random("B", ["K", "N"], (32, 20), 0.2, seed=4),
        }
        result = search(spec, tensors, metric="energy", workers=1)
        by_time = result.best("exec_seconds")
        by_energy = result.best("energy")
        assert by_time[0] != by_energy[0]
        assert result.best() == by_energy
        assert result.ranked() == result.ranked("energy")
        assert result.to_table() == result.to_table("energy")
        # The plain sweep container keeps exec_seconds as its default.
        plain = ExplorationResult(candidates=result.candidates)
        assert plain.best() == by_time
