import json

import numpy as np
import pytest

from catsim.io_utils import fmt_float, write_json


@pytest.mark.parametrize("value,text", [
    (float("nan"), "nan"),
    (float("inf"), "inf"),
    (float("-inf"), "-inf"),
    (-0.0, "-0"),
    (5e-324, "4.9406564584124654e-324"),
    (0.1, "0.10000000000000001"),
    (np.float64(2.0) / 3.0, "0.66666666666666663"),
])
def test_fmt_float_spells_every_float(value, text):
    assert fmt_float(value) == text
    if text != "nan":
        assert float(text) == value  # 17 significant digits round-trip


def test_write_json_round_trips_every_float(tmp_path):
    values = [0.1, np.float64(2.0) / 3.0, 5e-324, -0.0, 1e308, 41234.306097293316]
    path = tmp_path / "x.json"
    write_json(path, {"v": values, "z": complex(0.1, np.float64(1.0) / 3.0)})
    back = json.loads(path.read_text())
    assert back["v"] == values and all(type(v) is float for v in back["v"])
    assert back["z"] == [0.1, 1.0 / 3.0]
