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


ORACLE_L3_STEP_0_1 = """\
{
  "channel_fingerprint": "9f9e4eb375231d3a53a13b602b35d01e5103763f14fe68574fab893e546fb438",
  "levels": 3,
  "grid_step": 0.1,
  "num_candidates": 287496,
  "unconstrained_max_j_bits": 0.6096975225075824,
  "uplink_sum_rate_bound_bits": 0.6096975225075827,
  "constrained": {
    "c1_max_bits": 0.4,
    "c2_max_bits": 0.5,
    "i_rd_bits": 0.253137002371822,
    "argmax_c1_bits": 0.39914865904123004,
    "argmax_c2_bits": 0.42010154304608277,
    "boundary_optimal": true
  },
  "penalized": {
    "lambda1": 0.3,
    "lambda2": 0.2,
    "value_bits": 0.05251472234416105,
    "argmax_j_bits": 0.24727500290717952,
    "argmax_c1_bits": 0.38102603592219636,
    "argmax_c2_bits": 0.4022623489317978
  }
}
"""
ORACLE_L2_STEP_0_02 = """\
{
  "channel_fingerprint": "9f9e4eb375231d3a53a13b602b35d01e5103763f14fe68574fab893e546fb438",
  "levels": 2,
  "grid_step": 0.02,
  "num_candidates": 132651,
  "unconstrained_max_j_bits": 0.41921292156580703,
  "uplink_sum_rate_bound_bits": 0.6096975225075827,
  "constrained": {
    "c1_max_bits": 0.4,
    "c2_max_bits": 0.5,
    "i_rd_bits": 0.2574716997363734,
    "argmax_c1_bits": 0.39966684637346905,
    "argmax_c2_bits": 0.42277982284741833,
    "boundary_optimal": true
  },
  "penalized": {
    "lambda1": 0.3,
    "lambda2": 0.2,
    "value_bits": 0.05544287520648457,
    "argmax_j_bits": 0.29332651898700296,
    "argmax_c1_bits": 0.4665156294411963,
    "argmax_c2_bits": 0.4896447747407976
  }
}
"""


@pytest.mark.parametrize("levels, step, expected", [
    ("3", "0.1", ORACLE_L3_STEP_0_1),
    ("2", "0.02", ORACLE_L2_STEP_0_02),
], ids=["L3-step-0.1", "L2-step-0.02"])
def test_oracle_result_bytes(tmp_path, levels, step, expected):
    """The benchmark's two oracle tables, each with one constrained and one
    penalized query: the JSON the oracle command writes for them."""
    out = tmp_path / "oracle.json"
    assert cli.main(["oracle", "--fixture", "--levels", levels, "--step", step,
                     "--c1-max", "0.4", "--c2-max", "0.5", "--lambda1", "0.3",
                     "--lambda2", "0.2", "--out", str(out)]) == cli.EXIT_OK
    assert out.read_bytes() == expected.encode()
