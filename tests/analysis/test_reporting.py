"""Tests for the text table/series renderers."""

import pytest

from repro.analysis.reporting import (
    format_series,
    format_table,
    parse_size,
    read_series,
    read_table,
    size_label,
)


class TestFormatTable:
    def test_alignment(self):
        text = format_table(
            ["name", "value"], [("short", 1), ("much-longer-name", 22)]
        )
        lines = text.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines[2:])

    def test_empty_rows(self):
        text = format_table(["a"], [])
        assert "a" in text

    def test_read_inverts_render(self):
        headers = ["core", "critical path", "avg power"]
        rows = [
            ("RV32E + PMP16", "alu-bypass (EX)", "0.0361 mW"),
            ("security premium", "+28.0%", ""),
            ("x", "1,024 B", "7"),
        ]
        assert read_table(format_table(headers, rows)) == (headers, rows)


class TestFormatSeries:
    def test_contains_all_labels_and_sizes(self):
        series = {
            "Baseline": [(32, 1.0), (1024, 1.0)],
            "Software": [(32, 1.4), (1024, 3.2)],
        }
        text = format_series(series, "Figure 6")
        assert "Figure 6" in text
        assert "Baseline" in text and "Software" in text
        assert "32B" in text and "1KiB" in text
        assert "#" in text

    def test_empty(self):
        assert "no data" in format_series({}, "t")

    @pytest.mark.parametrize("series", [
        {
            "Baseline (S)": [(32, 0.819), (2048, 0.805)],
            "Software": [(32, 1.046), (128 * 1024, 173.609)],
        },
        {},
    ])
    def test_read_inverts_render(self, series):
        assert read_series(format_series(series, "Figure 5")) == series


class TestSizeLabel:
    def test_labels(self):
        assert size_label(32) == "32B"
        assert size_label(2048) == "2KiB"
        assert size_label(1 << 20) == "1MiB"

    def test_parse_inverts_label(self):
        for nbytes in (32, 1000, 1024, 128 * 1024, 1 << 20):
            assert parse_size(size_label(nbytes)) == nbytes
        with pytest.raises(ValueError):
            parse_size("12 parsecs")
