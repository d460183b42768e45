import pytest

from scalenorm import ApOracle, ScaleRange, SearchAborted, SearchSpace, greedy_range_search

from conftest import RANGE_AP_TABLE


class TestPublishedLookup:
    def test_finds_published_range(self):
        best, trace = greedy_range_search(SearchSpace(), ApOracle.from_table(RANGE_AP_TABLE))
        assert (best.lower, best.upper) == (16.0, 560.0)
        aps = {(r.lower, r.upper): ap for r, ap in trace}
        assert aps[(16.0, 560.0)] == 38.7

    def test_trace_probes_exactly_the_published_entries(self):
        _, trace = greedy_range_search(SearchSpace(), ApOracle.from_table(RANGE_AP_TABLE))
        probed = [(r.lower, r.upper) for r, _ in trace]
        assert len(probed) == len(set(probed)) == 7
        assert set(probed) == set(RANGE_AP_TABLE)
        for rng, ap in trace:
            assert ap == RANGE_AP_TABLE[(rng.lower, rng.upper)]


class TestDescentBehavior:
    def test_constant_oracle_keeps_initial_range(self):
        mapping = {
            (lo, hi): 30.0
            for lo in (0.0, 16.0, 32.0)
            for hi in (320.0, 496.0, 560.0, 640.0)
        }
        best, _ = greedy_range_search(SearchSpace(), ApOracle.from_table(mapping))
        assert (best.lower, best.upper) == (0.0, 640.0)

    def test_increasing_in_lower_bound(self):
        # ap = 10 * lower + 0.01 * upper: every sweep moves to the extreme
        mapping = {
            (lo, hi): 10.0 * lo + 0.01 * hi
            for lo in (0.0, 16.0, 32.0)
            for hi in (320.0, 496.0, 560.0, 640.0)
        }
        best, trace = greedy_range_search(SearchSpace(), ApOracle.from_table(mapping))
        assert (best.lower, best.upper) == (32.0, 640.0)
        # hand-traced probe set: full lower sweep at 640, then upper sweep at 32
        assert {(r.lower, r.upper) for r, _ in trace} == {
            (0.0, 640.0),
            (16.0, 640.0),
            (32.0, 640.0),
            (32.0, 560.0),
            (32.0, 496.0),
            (32.0, 320.0),
        }

    def test_local_optimality_over_probed_set(self):
        best, trace = greedy_range_search(SearchSpace(), ApOracle.from_table(RANGE_AP_TABLE))
        aps = {(r.lower, r.upper): ap for r, ap in trace}
        best_ap = aps[(best.lower, best.upper)]
        final_alternation = [
            key for key in aps if key[0] == best.lower or key[1] == best.upper
        ]
        assert all(aps[key] <= best_ap for key in final_alternation)

    def test_oracle_called_once_per_pair(self):
        calls = []

        def fn(rng):
            calls.append((rng.lower, rng.upper))
            return RANGE_AP_TABLE[(rng.lower, rng.upper)]

        oracle = ApOracle(fn)
        greedy_range_search(SearchSpace(), oracle)
        assert len(calls) == len(set(calls)) == 7
        assert oracle.calls == 7

    def test_call_budget(self):
        space = SearchSpace()
        oracle = ApOracle.from_table(RANGE_AP_TABLE)
        greedy_range_search(space, oracle)
        assert oracle.calls <= len(space.lower_candidates) * len(space.upper_candidates)

    def test_oracle_failure_aborts_with_partial_trace(self):
        partial = dict(RANGE_AP_TABLE)
        del partial[(16.0, 560.0)]
        lookup, queries = ApOracle.from_table(partial), []

        def recording(rng):
            queries.append((rng.lower, rng.upper))
            return lookup.query(rng)

        with pytest.raises(SearchAborted) as err:
            greedy_range_search(SearchSpace(), ApOracle(recording))
        assert str(err.value) == ("oracle failed on range [16.0, 560.0]: "
                                  "the lookup table has no entry for this range")
        assert queries == [(0.0, 640.0), (16.0, 640.0), (32.0, 640.0), (16.0, 560.0)]

    def test_deterministic(self):
        runs = [
            greedy_range_search(SearchSpace(), ApOracle.from_table(RANGE_AP_TABLE))
            for _ in range(3)
        ]
        assert all(run == runs[0] for run in runs)


class TestSearchSpaceValidation:
    def test_candidates_must_be_sorted(self):
        with pytest.raises(ValueError):
            SearchSpace(lower_candidates=(16.0, 0.0, 32.0))

    def test_initial_must_be_in_candidates(self):
        with pytest.raises(ValueError):
            SearchSpace(initial=ScaleRange(8.0, 640.0))
