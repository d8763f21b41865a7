"""SVG emission against the per-point reference: every document byte for byte."""

import math

import numpy as np
import pytest

from tubeform import cli
from tubeform.cli import main
from tubeform.svgplot import SvgFigure

from oracles import ReferenceSvgFigure

REPORT_FILES = (
    "trajectories.svg", "formation_errors.svg", "clearances.svg", "tube_occupancy.svg",
    "metrics.csv",
)


def both(draw, **kwargs) -> tuple[str, str]:
    """``draw`` applied to a figure and to its reference; their two documents."""
    figures = [cls("title <&>", "x", "y", **kwargs) for cls in (SvgFigure, ReferenceSvgFigure)]
    for fig in figures:
        draw(fig)
    return figures[0].render(), figures[1].render()


@pytest.mark.parametrize("equal_aspect", [False, True])
class TestAgainstReference:
    def test_non_finite_points_and_an_empty_series(self, equal_aspect):
        t = np.linspace(0.0, 3.0, 301)
        y = np.sin(3.0 * t)
        y[[0, 7, 150]] = [np.nan, np.inf, -np.inf]
        x = t.copy()
        x[[3, 300]] = [np.nan, -np.inf]

        def draw(fig):
            fig.add_line(x, y, label="a")
            fig.add_line(t, np.full_like(t, np.nan), label="no finite point")
            fig.add_line([math.inf, 1.0], [2.0, math.nan])

        new, ref = both(draw, equal_aspect=equal_aspect)
        assert new == ref
        assert 'points=""' in new

    def test_signed_zeros(self, equal_aspect):
        def draw(fig):
            fig.add_line(np.array([0.0, -0.0, 0.0]), np.array([-0.0, 0.0, -0.0]))
            fig.add_line(np.array([-0.0, 1e-300, -1e-300]), np.array([0.0, -0.0, 2.0]))

        new, ref = both(draw, equal_aspect=equal_aspect)
        assert new == ref

    def test_only_zeros_falls_back_to_the_unit_box(self, equal_aspect):
        new, ref = both(lambda fig: fig.add_line([-0.0, 0.0], [0.0, -0.0]), equal_aspect=equal_aspect)
        assert new == ref

    def test_circles_and_hlines(self, equal_aspect):
        def draw(fig):
            fig.add_circle(1.0, -2.0, 0.5, color="#333333", fill="#aaaaaa")
            fig.add_circle(1.0, -2.0, 0.75, color="#888888", dashed=True)
            fig.add_hline(0.0, label="zero")
            fig.add_hline(-3.25, color="#d62728")
            fig.add_line(np.linspace(-1.0, 4.0, 51), np.linspace(-4.0, 1.0, 51))

        new, ref = both(draw, equal_aspect=equal_aspect)
        assert new == ref

    def test_two_dashed_overlays(self, equal_aspect):
        t = np.linspace(0.0, 30.0, 3001)

        def draw(fig):
            for shift, dashed in ((0.0, False), (0.1, True), (0.2, True)):
                fig.add_line(t, np.cos(t + shift) * np.exp(-0.1 * t), label=f"{shift}",
                             dashed=dashed)

        new, ref = both(draw, equal_aspect=equal_aspect)
        assert new == ref
        assert new.count('stroke-dasharray="6,4"') == 2


def test_markup_characters_in_the_text_render_as_the_reference():
    """A title, axis labels and a legend label holding & < > " ' escape the first three only,
    as the reference's ``xml.sax.saxutils.escape`` does."""
    text = "a&b<c>d\"e'f"
    figures = [cls(text, text, text) for cls in (SvgFigure, ReferenceSvgFigure)]
    for fig in figures:
        fig.add_line([0.0, 1.0], [1.0, 0.0], label=text)
    new, ref = (fig.render() for fig in figures)
    assert new == ref
    assert new.count(">a&amp;b&lt;c&gt;d\"e'f</text>") == 4


def test_write_is_utf8_bytes(tmp_path):
    fig = SvgFigure("Ω", "x", "y")
    fig.add_line([0.0, 1.0], [1.0, 0.0], label="agent Ω")
    fig.write(tmp_path / "f.svg")
    assert (tmp_path / "f.svg").read_bytes() == (fig.render() + "\n").encode("utf-8")


def test_paper_report_equals_reference(paper, tmp_path, monkeypatch):
    _, _, result, _ = paper
    trace = tmp_path / "trace.csv"
    result.trace.to_csv(trace)
    assert main(["report", str(trace), "-o", str(tmp_path / "new")]) == 0
    monkeypatch.setattr(cli, "SvgFigure", ReferenceSvgFigure)
    assert main(["report", str(trace), "-o", str(tmp_path / "ref")]) == 0
    for name in REPORT_FILES:
        assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes(), name
