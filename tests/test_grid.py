import numpy as np
import pytest

from gaugeport import TimeGrid


class TestTimeGrid:
    @pytest.mark.parametrize(
        "dt, steps, message",
        [
            (0.0, 4, "^dt must be positive and finite"),
            (-0.1, 4, "^dt must be positive and finite"),
            # NaN fails no "<= 0" test: both gave a grid of NaN or inf points
            (np.nan, 4, "^dt must be positive and finite"),
            (np.inf, 4, "^dt must be positive and finite"),
            (0.1, 0, "^steps must be >= 1"),
            # a float step count was accepted: n_points read 3.5 while points() held 4
            (0.1, 2.5, "^steps must be an integer"),
            (0.1, 2.0, "^steps must be an integer"),
        ],
    )
    def test_rejects_bad_dt_and_steps(self, dt, steps, message):
        with pytest.raises(ValueError, match=message):
            TimeGrid(dt, steps)

    def test_integer_like_steps_become_int(self):
        grid = TimeGrid(0.1, np.int64(3))
        assert type(grid.steps) is int
        assert grid == TimeGrid(0.1, 3)
