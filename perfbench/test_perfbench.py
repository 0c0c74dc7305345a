"""Tests of the benchmark's own statistics, span accounting and oracle.

    python3 -m pytest perfbench -q
"""

import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import stats  # noqa: E402
from oracle import MALFORMED, NOT_CONTEXTUAL, VALID, context_sign, expected_report  # noqa: E402
from spans import Tracer, status_mb, summarize, top_level  # noqa: E402


def test_median_odd_and_even():
    assert stats.median([3, 1, 2]) == 2
    assert stats.median([4, 1, 3, 2]) == 2.5
    with pytest.raises(ValueError):
        stats.median([])


def test_percentile_interpolates_between_order_statistics():
    values = list(range(1, 101))  # 1..100
    assert stats.percentile(values, 0) == 1
    assert stats.percentile(values, 100) == 100
    assert stats.percentile(values, 50) == 50.5
    assert stats.percentile(values, 99) == pytest.approx(99.01)
    assert stats.percentile([7.0], 99) == 7.0
    assert stats.percentile([10, 0], 25) == 2.5  # order of input does not matter
    with pytest.raises(ValueError):
        stats.percentile(values, 101)
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_tail_percentile_keeps_ten_samples_above_it():
    assert stats.tail_percentile(1000) == 99.0
    assert stats.tail_percentile(999) == 90.0
    assert stats.tail_percentile(100) == 90.0
    assert stats.tail_percentile(99) == 50.0
    assert stats.tail_percentile(1) == 50.0


def test_quartiles_match_statistics_quantiles():
    values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0]
    assert stats.quartiles(values) == tuple(statistics.quantiles(values, n=4))
    assert stats.quartiles([1, 2, 3, 4, 5])[1] == 3
    with pytest.raises(ValueError):
        stats.quartiles([1.0])


def test_self_time_subtracts_children():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["child", 1.0, 4.0, 0],
        ["grandchild", 2.0, 3.0, 1],
        ["child", 5.0, 7.0, 0],
        ["other", 10.0, 11.0, -1],
    ]
    summary = summarize(spans)
    assert summary["root"] == {"count": 1, "total": 10.0, "self": 5.0}
    assert summary["child"] == {"count": 2, "total": 5.0, "self": 4.0}
    assert summary["grandchild"]["self"] == 1.0
    assert top_level(spans) == [("root", 0.0, 10.0), ("other", 10.0, 11.0)]


def test_tracer_records_nested_wrapped_calls():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    (i_name, i_start, i_end, i_parent), (o_name, o_start, o_end, o_parent) = sorted(
        tracer.spans, key=lambda s: s[0]
    )
    assert (i_name, o_name) == ("inner", "outer")
    assert o_parent == -1 and tracer.spans[i_parent][0] == "outer"
    assert o_start <= i_start <= i_end <= o_end


def test_status_mb_reads_kilobyte_fields():
    status = "Name:\tpython3\nVmHWM:\t  204800 kB\nVmRSS:\t  102400 kB\n"
    assert status_mb(status, "VmHWM") == 200.0
    assert status_mb(status, "VmRSS") == 100.0


def test_oracle_context_signs():
    assert context_sign(("XII", "IXI", "XXI")) == 1
    assert context_sign(("XXX", "XYY", "YXY", "YYX")) == -1  # Mermin's negative row
    assert context_sign(("XII", "ZII", "YII")) is None  # anticommuting
    assert context_sign(("XII", "IXI", "IIX")) is None  # commuting, not closed


def test_oracle_verdicts():
    # Mermin's square: the six rows and columns form a parity proof.
    square = [
        ["XII", "IXI", "XXI"], ["IZI", "ZII", "ZZI"], ["XZI", "ZXI", "YYI"],
        ["XII", "IZI", "XZI"], ["IXI", "ZII", "ZXI"], ["XXI", "ZZI", "YYI"],
    ]
    verdict, negative, point_part, context_part = expected_report(square)
    assert (verdict, negative) == (VALID, 1)
    assert (point_part, context_part) == ([[2, 9]], [[3, 6]])
    assert expected_report(square[:5])[0] == NOT_CONTEXTUAL
    assert expected_report(square + [["XII", "ZII", "YII"]])[0] == MALFORMED
