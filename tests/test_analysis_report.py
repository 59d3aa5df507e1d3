"""Tests for the text rendering helpers."""

import pytest

from repro.analysis.report import render_cdf, render_table


class TestRenderTable:
    def test_columns_aligned(self):
        text = render_table(["A", "Longer"], [("x", 1), ("yyyy", 22)])
        lines = text.splitlines()
        assert len(lines) == 4  # header, rule, two rows
        header, rule = lines[0], lines[1]
        assert header.index("Longer") == rule.index("-", header.index("Longer"))

    def test_title_prepended(self):
        text = render_table(["A"], [("x",)], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_numeric_formatting(self):
        text = render_table(["N", "F"], [(1234567, 3.14159)])
        assert "1,234,567" in text
        assert "3.14" in text

    def test_empty_rows(self):
        text = render_table(["A", "B"], [])
        assert "A" in text and "B" in text

    def test_column_width_grows_with_content(self):
        text = render_table(["A"], [("a-very-long-cell-value",)])
        assert "a-very-long-cell-value" in text


class TestRenderCdf:
    def test_downsampling(self):
        curve = [(float(i), i / 99) for i in range(100)]
        text = render_cdf(curve, points=10)
        lines = [line for line in text.splitlines() if "F(x)" in line]
        assert 10 <= len(lines) <= 12
        assert "F(x)= 1.000" in lines[-1]

    def test_last_point_always_kept(self):
        curve = [(0.0, 0.5), (7.0, 1.0)]
        text = render_cdf(curve, points=1)
        assert "x=      7.0" in text

    def test_empty(self):
        assert "(empty)" in render_cdf([], label="c")
