"""Axis ticks and flat spans of the SVG line plots."""

import pytest

from pairenergy import svgplot


@pytest.mark.parametrize("lo, hi, want", [(0.0, 1.0, [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]),
                                          (-0.37, 2.9, [0.0, 1.0, 2.0]),
                                          (95.0, 130.0, [100.0, 110.0, 120.0, 130.0])])
def test_ticks_are_multiples_of_the_step_inside_the_span(lo, hi, want):
    assert svgplot._ticks(lo, hi, False) == pytest.approx(want, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("hi", [1.0, 1.0 + 2.2e-16, 1.0 + 4.4e-16])
def test_span_at_rounding_level_gives_one_tick(hi):
    # a tick step below one ulp of lo could never be stepped through
    assert svgplot._ticks(1.0, hi, False) == [1.0]


def test_line_plot_of_values_one_ulp_apart(tmp_path):
    path = tmp_path / "flat.svg"
    svgplot.line_plot(path, [2, 3], [1.0, 1.0 + 2.2e-16], "diameter",
                      title="t", xlabel="N", ylabel="diameter")
    text = path.read_text()
    # the flat y axis is widened to [0.5, 1.5] (padded to [0.45, 1.55]), so
    # its ticks run from 0.6 to 1.4 in steps of 0.2
    for tick in ("0.6", "1", "1.4"):
        assert f'font-family="sans-serif">{tick}</text>' in text
    assert text.count("<circle") == 2
