"""Every file format qfrelay writes, pinned to literal bytes.

The other tests compare runs with each other; these compare one fixed input
with the exact text each writer produces for it.
"""

import numpy as np
import pytest

from qfrelay import QuantizerPmf, Surface, SurfacePoint, cli
from qfrelay.sweep import surface_to_csv, surface_to_json

POINTS = (
    SurfacePoint(0.001, 10.0, 0.7530348300875424, 0.0, 0.40633433942036395, 1e-237, 12,
                 False, 2 ** 32 - 1, QuantizerPmf(np.array([[0.25, 1.0, 0.0],
                                                            [0.75, 0.0, 1.0]]))),
    SurfacePoint(0.1, 0.30000000000000004, 1.5, 2.5, 1.25, 0.0, 5000, True, 0,
                 QuantizerPmf(np.array([[0.5, 0.0, 1.0], [0.5, 1.0, 0.0]]))),
)
SURFACE = Surface(points=POINTS, channel_fingerprint="abc123", num_levels=2, warnings=("w",))

SURFACE_CSV = """\
lambda1,lambda2,c1_bits,c2_bits,i_rd_bits,h_scalar_bits,iterations,converged,seed
0.001,10.0,0.7530348300875424,0.0,0.40633433942036395,1e-237,12,false,4294967295
0.1,0.30000000000000004,1.5,2.5,1.25,0.0,5000,true,0
"""

POINT_0 = """\
      "lambda1": 0.001,
      "lambda2": 10.0,
      "c1_bits": 0.7530348300875424,
      "c2_bits": 0.0,
      "i_rd_bits": 0.40633433942036395,
      "h_scalar_bits": 1e-237,
      "iterations": 12,
      "converged": false,
      "seed": 4294967295"""
POINT_1 = """\
      "lambda1": 0.1,
      "lambda2": 0.30000000000000004,
      "c1_bits": 1.5,
      "c2_bits": 2.5,
      "i_rd_bits": 1.25,
      "h_scalar_bits": 0.0,
      "iterations": 5000,
      "converged": true,
      "seed": 0"""
Q_0 = """,
      "q": [
        [
          0.25,
          1.0,
          0.0
        ],
        [
          0.75,
          0.0,
          1.0
        ]
      ]"""
Q_1 = """,
      "q": [
        [
          0.5,
          0.0,
          1.0
        ],
        [
          0.5,
          1.0,
          0.0
        ]
      ]"""


def _surface_json(q0: str, q1: str) -> str:
    return f"""\
{{
  "channel_fingerprint": "abc123",
  "num_levels": 2,
  "warnings": [
    "w"
  ],
  "points": [
    {{
{POINT_0}{q0}
    }},
    {{
{POINT_1}{q1}
    }}
  ]
}}
"""


@pytest.mark.parametrize("write, expected", [
    (surface_to_csv, SURFACE_CSV),
    (surface_to_json, _surface_json("", "")),
    (lambda s, path: surface_to_json(s, path, include_q=True), _surface_json(Q_0, Q_1)),
], ids=["csv", "json", "json-with-q"])
def test_surface_file_bytes(tmp_path, write, expected):
    path = tmp_path / "surface.out"
    write(SURFACE, path)
    assert path.read_bytes() == expected.encode()


def test_trace_csv_bytes(tmp_path):
    path = tmp_path / "trace.csv"
    cli._write_trace_csv([np.float64(0.5), 1.0, 0.1 + 0.2], str(path))
    assert path.read_bytes() == b"iteration,lagrangian_bits\n0,0.5\n1,1.0\n2,0.30000000000000004\n"


def test_sumrate_result_bytes(tmp_path):
    surface, out = tmp_path / "surface.csv", tmp_path / "result.json"
    surface_to_csv(SURFACE, surface)
    assert cli.main(["sumrate", "--surface", str(surface), "--i1-bits", "1.0",
                     "--i2-bits", "2.0", "--out", str(out)]) == cli.EXIT_OK
    assert out.read_bytes() == b"""\
{
  "i1_bits": 1.0,
  "i2_bits": 2.0,
  "alpha_star": 0.39999999999999997,
  "sum_rate_bits": 0.49999999999999994,
  "c1_at_star_bits": 1.5000000000000004,
  "c2_at_star_bits": 3.000000000000001,
  "i_rd_at_star_bits": 1.25
}
"""
