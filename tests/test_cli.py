import numpy as np

from rebalfreq import cli


def figure_waits(tmp_path, *extra):
    out = tmp_path / "figure.csv"
    assert cli.main(["figure", "--figure", "1", "--out", str(out), *extra]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "rho,A_star_years,F_hat"
    return np.array([float(line.split(",")[1]) for line in lines[1:]])


def test_figure_epsilon_sets_waiting_time(tmp_path):
    default = figure_waits(tmp_path)
    smaller = figure_waits(tmp_path, "--epsilon", "0.001")
    # waiting times scale like eps^(2/3) (default cost rate 0.01); the CSV
    # carries ten significant digits
    np.testing.assert_allclose(smaller / default, 0.1 ** (2.0 / 3.0), rtol=1e-9)
