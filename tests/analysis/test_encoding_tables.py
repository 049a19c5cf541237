"""Tests for the Figure 2 section (enumerated from the code)."""

from repro.analysis.reporting import read_table
from repro.analysis.tables import FIGURE2, figure2, render


def _rows():
    ((title, body),) = figure2()
    assert title == FIGURE2
    return {row[0]: row[1:] for row in read_table(body)[1]}


class TestEnumeration:
    def test_all_64_words_covered(self):
        assert sum(int(encodings) for encodings, _, _ in _rows().values()) == 64

    def test_paper_figure2_group_sizes(self):
        """mem-cap-rw: GL+SL+LM+LG optional -> 16 encodings; cap-ro: 8;

        cap-wo: 2 (GL only); no-cap: 6 (GL x (LD,SD) minus the 00
        collision with cap-wo); executable: 16; sealing: 16."""
        groups = {fmt: int(row[0]) for fmt, row in _rows().items()}
        assert groups == {
            "mem-cap-rw": 16,
            "mem-cap-ro": 8,
            "mem-cap-wo": 2,
            "mem-no-cap": 6,
            "executable": 16,
            "sealing": 16,
        }

    def test_implied_permissions_match_paper(self):
        rows = _rows()
        assert {"LD", "MC", "SD"} <= set(rows["mem-cap-rw"][1].split())
        assert {"EX", "LD", "MC"} <= set(rows["executable"][1].split())


class TestRendering:
    def test_figure2_text(self):
        text = render((figure2,))
        assert FIGURE2 in text
        for fmt in ("mem-cap-rw", "executable", "sealing"):
            assert fmt in text
        assert "EX LD MC" in text
