import numpy as np
import pytest

from infercarbon.traces import (
    HISTOGRAM_EDGES,
    ColumnMap,
    EmptyTrace,
    MissingColumn,
    ParseError,
    TraceRecord,
    empirical_prior,
    nearest_rank,
    parse_trace,
    serialize_trace,
    trace_stats,
)


def write_trace(path, rows, header="TIMESTAMP,ContextTokens,GeneratedTokens"):
    path.write_text("\n".join([header] + rows) + "\n")
    return path


class TestParsing:
    def test_three_rows(self, tmp_path):
        path = write_trace(tmp_path / "t.csv", ["1,100,10", "2,200,20", "3,300,30"])
        records = parse_trace(path)
        assert records == [
            TraceRecord("1", 100, 10),
            TraceRecord("2", 200, 20),
            TraceRecord("3", 300, 30),
        ]

    def test_header_only(self, tmp_path):
        path = write_trace(tmp_path / "t.csv", [])
        assert parse_trace(path) == []

    def test_non_numeric_token_reports_line(self, tmp_path):
        path = write_trace(tmp_path / "t.csv", ["1,100,10", "2,twenty,20"])
        with pytest.raises(ParseError) as err:
            parse_trace(path)
        assert ":3:" in str(err.value)

    def test_negative_count_rejected(self, tmp_path):
        path = write_trace(tmp_path / "t.csv", ["1,-5,10"])
        with pytest.raises(ParseError):
            parse_trace(path)

    def test_missing_column(self, tmp_path):
        path = write_trace(tmp_path / "t.csv", ["1,100"], header="TIMESTAMP,ContextTokens")
        with pytest.raises(MissingColumn):
            parse_trace(path)

    def test_custom_column_map(self, tmp_path):
        path = write_trace(tmp_path / "t.csv", ["9,64,4"], header="ts,in_tok,out_tok")
        records = parse_trace(path, ColumnMap(timestamp="ts", prompt="in_tok", generated="out_tok"))
        assert records == [TraceRecord("9", 64, 4)]

    def test_records_sorted_by_numeric_timestamp(self, tmp_path):
        path = write_trace(tmp_path / "t.csv", ["10,3,3", "9,2,2", "100,4,4", "1,1,1"])
        records = parse_trace(path)
        assert [r.timestamp for r in records] == ["1", "9", "10", "100"]

    def test_roundtrip_identity(self, tmp_path):
        rows = [f"{i},{i * 7 % 300},{i * 3 % 50}" for i in range(100)]
        path = write_trace(tmp_path / "t.csv", rows)
        records = parse_trace(path)
        out = tmp_path / "copy.csv"
        serialize_trace(records, out)
        assert parse_trace(out) == records


class TestStats:
    def test_known_percentiles(self):
        records = [TraceRecord(str(i), i, 101 - i) for i in range(1, 101)]
        stats = trace_stats(records)
        assert stats.count == 100
        assert stats.prompt_percentiles == {"p50": 50, "p90": 90, "p99": 99}
        assert stats.generated_percentiles == {"p50": 50, "p90": 90, "p99": 99}

    def test_identical_values(self):
        records = [TraceRecord(str(i), 42, 7) for i in range(10)]
        stats = trace_stats(records)
        assert stats.prompt_percentiles["p50"] == 42
        assert stats.prompt_percentiles["p99"] == 42

    def test_single_record(self):
        stats = trace_stats([TraceRecord("0", 5, 9)])
        assert stats.prompt_percentiles == {"p50": 5, "p90": 5, "p99": 5}
        assert stats.generated_percentiles["p99"] == 9

    def test_histogram_mass(self):
        rng = np.random.Generator(np.random.PCG64(3))
        records = [
            TraceRecord(str(i), int(rng.integers(0, 5000)), int(rng.integers(0, 600)))
            for i in range(500)
        ]
        stats = trace_stats(records)
        assert sum(stats.prompt_histogram) == 500
        assert sum(stats.generated_histogram) == 500

    @pytest.mark.parametrize("tokens, bucket", [
        (0, 0), (1, 1), (2, 2), (3, 2), (2**20 - 1, 20), (2**20, 21),
    ])
    def test_histogram_bucket_placement(self, tokens, bucket):
        # buckets are [0,1), [1,2), [2,4), ... [2^19, 2^20), then overflow
        stats = trace_stats([TraceRecord("0", tokens, tokens)])
        expected = [0] * len(HISTOGRAM_EDGES)
        expected[bucket] = 1
        assert stats.prompt_histogram == expected
        assert stats.generated_histogram == expected
        assert bucket == len(HISTOGRAM_EDGES) - 1 or (
            HISTOGRAM_EDGES[bucket] <= tokens < HISTOGRAM_EDGES[bucket + 1])

    def test_percentiles_permutation_invariant(self):
        rng = np.random.Generator(np.random.PCG64(5))
        values = [int(v) for v in rng.integers(0, 1000, size=200)]
        records = [TraceRecord(str(i), v, v) for i, v in enumerate(values)]
        shuffled = list(records)
        rng.shuffle(shuffled)
        assert trace_stats(records).prompt_percentiles == \
            trace_stats(shuffled).prompt_percentiles

    def test_empty_rejected(self):
        with pytest.raises(EmptyTrace):
            trace_stats([])

    def test_nearest_rank_definition(self):
        values = sorted([7, 1, 5, 3, 9])
        assert nearest_rank(values, 50) == 5  # ceil(0.5*5)=3rd smallest
        assert nearest_rank(values, 100) == 9
        assert nearest_rank(values, 1) == 1


class TestEmpiricalPrior:
    def test_degenerate_trace(self):
        prior = empirical_prior([TraceRecord("0", 64, 8)])
        rng = np.random.Generator(np.random.PCG64(0))
        draws = {prior.draw(rng)[1:] for _ in range(20)}
        assert draws == {(64, 8)}

    def test_two_point_frequencies(self):
        prior = empirical_prior([TraceRecord("0", 10, 1), TraceRecord("1", 20, 2)])
        rng = np.random.Generator(np.random.PCG64(1))
        n = 10_000
        hits = sum(1 for _ in range(n) if prior.draw(rng)[1] == 10)
        # binomial 3-sigma bound around n/2
        sigma = (n * 0.25) ** 0.5
        assert abs(hits - n / 2) < 3 * sigma

    def test_batch_mixture_respected(self):
        prior = empirical_prior([TraceRecord("0", 64, 8)], batch_mixture={1: 1.0})
        rng = np.random.Generator(np.random.PCG64(2))
        assert all(prior.draw(rng)[0] == 1 for _ in range(50))

    def test_zero_token_rows_floor_to_one(self):
        prior = empirical_prior([TraceRecord("0", 0, 0)])
        rng = np.random.Generator(np.random.PCG64(3))
        _, prompt, gen = prior.draw(rng)
        assert prompt == 1 and gen == 1

    def test_empty_trace_rejected(self):
        with pytest.raises(EmptyTrace):
            empirical_prior([])
