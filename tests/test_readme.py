"""The README's Python API example runs as written against the package."""

import re
from pathlib import Path

import numpy as np

from peerfx import assign_groups
from peerfx.simulate import SimConfig, SimTruth, run_simulation

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_api_block_runs():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Python API"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    # bind the example's free names from a small simulated world
    sim = run_simulation(SimConfig(n_players=3000, seed=2),
                         SimTruth(beta=0.1),
                         games=("SMB",))
    net, schedule = sim.network, sim.schedules["SMB"]
    ai, bi, formed_week = net.edge_array()
    sample = assign_groups(net, schedule, 200, seed=1).treatment
    names = {"a": net.nodes[ai], "b": net.nodes[bi], "formed_week": formed_week,
             "players": schedule.players,
             "games": np.full(schedule.players.size, "SMB", dtype=object),
             "unlocked_unix": schedule.weeks * 604800, "sample": sample}
    exec(compile(code, str(README), "exec"), names)
    fit = names["fit"]
    assert names["panel"].n_rows > 0
    assert np.isfinite(fit.coef_of("x_friend"))
