"""Tests for the ASCII chart renderer."""

from repro.sim import plotting
from repro.sim.plotting import ascii_chart


class TestAsciiChart:
    def test_basic_render(self):
        text = ascii_chart(
            "Hit ratio",
            [4, 8, 12],
            {"0-parity": [10.0, 20.0, 30.0], "Reo-20%": [9.0, 18.0, 28.0]},
        )
        lines = text.splitlines()
        assert lines[0] == "Hit ratio"
        assert "o 0-parity" in lines[-1]
        assert "x Reo-20%" in lines[-1]
        assert "30.0" in text and "9.0" in text  # y-axis bounds

    def test_marks_appear(self):
        text = ascii_chart("t", [1, 2], {"s": [0.0, 1.0]})
        assert text.count("o") >= 2

    def test_extremes_placed_top_and_bottom(self, monkeypatch):
        monkeypatch.setattr(plotting, "HEIGHT", 5)
        monkeypatch.setattr(plotting, "WIDTH", 20)
        text = ascii_chart("t", [1, 2], {"s": [0.0, 100.0]})
        lines = text.splitlines()
        plot = [line.split("|", 1)[1] for line in lines[1:6]]
        assert "o" in plot[0]  # max on the top row
        assert "o" in plot[-1]  # min on the bottom row

    def test_flat_series(self):
        text = ascii_chart("flat", [1, 2, 3], {"s": [5.0, 5.0, 5.0]})
        assert "o" in text

    def test_empty_series(self):
        assert "(no data)" in ascii_chart("e", [], {"s": []})

    def test_single_point(self):
        text = ascii_chart("p", [7], {"s": [3.0]})
        assert "o" in text

    def test_x_axis_labels(self):
        text = ascii_chart("t", [4, 12], {"s": [1.0, 2.0]})
        assert "4" in text.splitlines()[-2]
        assert "12" in text.splitlines()[-2]

    def test_y_label(self):
        text = ascii_chart("t", [1, 2], {"s": [1.0, 2.0]})
        # The unit sits on the middle plot row, left of the axis.
        assert text.splitlines()[1 + plotting.HEIGHT // 2].split("|")[0].strip() == "hit %"

    def test_many_series_cycle_marks(self):
        series = {f"s{i}": [float(i), float(i + 1)] for i in range(10)}
        text = ascii_chart("t", [1, 2], series)
        assert "s9" in text
