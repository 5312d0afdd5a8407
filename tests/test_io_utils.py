import json

import numpy as np
import pytest

from catsim.errors import CatsimError
from catsim.io_utils import write_csv, write_json


@pytest.mark.parametrize("value,text", [
    (float("nan"), "nan"),
    (float("inf"), "inf"),
    (float("-inf"), "-inf"),
    (-0.0, "-0"),
    (5e-324, "4.9406564584124654e-324"),
    (0.1, "0.10000000000000001"),
    (np.float64(2.0) / 3.0, "0.66666666666666663"),
])
def test_write_csv_spells_every_float(value, text, tmp_path):
    if text != "nan":
        assert float(text) == value  # 17 significant digits round-trip
    # in any column, each entry is spelled the same way
    path = tmp_path / "x.csv"
    write_csv(path, ("x", "y"), [(value, 1.0), (0.5, value)])
    assert path.read_text() == f"x,y\n{text},1\n0.5,{text}\n"


def test_write_json_round_trips_every_float(tmp_path):
    values = [0.1, np.float64(2.0) / 3.0, 5e-324, -0.0, 1e308, 41234.306097293316]
    path = tmp_path / "x.json"
    write_json(path, {"v": values, "z": complex(0.1, np.float64(1.0) / 3.0)})
    back = json.loads(path.read_text())
    assert back["v"] == values and all(type(v) is float for v in back["v"])
    assert back["z"] == [0.1, 1.0 / 3.0]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -np.inf,
                                   complex(0.0, np.nan)])
def test_write_json_refuses_non_finite_floats(value, tmp_path):
    # json.dumps would spell them NaN and Infinity, which are not JSON
    path = tmp_path / "x.json"
    with pytest.raises(CatsimError, match="x.json would hold a nan or inf"):
        write_json(path, {"ok": 1.0, "deep": {"v": [0.5, value]}})
    assert not path.exists()
