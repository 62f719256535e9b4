"""Rewrite the committed console reports under tests/baselines/.

Run from the repository root as ``PYTHONPATH=src python tests/console_baselines.py``.
It writes the ``--format json`` report of ``qdiv verify --suite all
--instances 5 --seed 7`` to verify-all-5-seed7.json, and that of every
``qdiv qsr`` and ``qdiv comm`` argument set in `CONSOLE` (the ones the
console-script step of .github/workflows/tests.yml runs, on the states it
saves) to ``<name>.json``.  A change that moves a field rewrites them with
this script, and its diff declares the move; test_cli.py compares each run
with its file.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from qdiv import cli
from qdiv.states import channel, classical_channel, random_density, save_channel, save_state

BASELINES = Path(__file__).parent / "baselines"

# baseline name -> argv; an argument ending in .json names a file that `save_inputs` writes
CONSOLE = {
    "qsr-state-0.5-0.005-0.005": ["qsr", "--state", "qsr-state.json", "--eps", "0.5", "--delta0", "0.005", "--delta1", "0.005"],
    "qsr-state-0.5-0.02-0.005": ["qsr", "--state", "qsr-state.json", "--eps", "0.5", "--delta0", "0.02", "--delta1", "0.005"],
    "qsr-rank3-0.5-0.005-0.005": ["qsr", "--state", "qsr-rank3.json", "--eps", "0.5", "--delta0", "0.005", "--delta1", "0.005"],
    "qsr-full-support-0.5-0.005-0.005": [
        "qsr", "--state", "qsr-full-support.json", "--eps", "0.5", "--delta0", "0.005", "--delta1", "0.005"
    ],
    "qsr-qutrit-0.5-0.005-0.005": ["qsr", "--state", "qsr-qutrit.json", "--eps", "0.5", "--delta0", "0.005", "--delta1", "0.005"],
    "qsr-state-0.95-0.001-0.3": ["qsr", "--state", "qsr-state.json", "--eps", "0.95", "--delta0", "0.001", "--delta1", "0.3"],
    "qsr-rank3-0.95-0.001-0.3": ["qsr", "--state", "qsr-rank3.json", "--eps", "0.95", "--delta0", "0.001", "--delta1", "0.3"],
    "qsr-state-0.5-0.005-0.05": ["qsr", "--state", "qsr-state.json", "--eps", "0.5", "--delta0", "0.005", "--delta1", "0.05"],
    "comm-bsc-0.2-brute-force-2": ["comm", "--channel", "bsc.json", "--eps", "0.2", "--brute-force", "--m", "2"],
    "comm-face-0.4": ["comm", "--channel", "face.json", "--eps", "0.4"],
}


def save_inputs(directory: Path) -> None:
    """The qsr states and comm channels of the console-script step, as it saves them, in ``directory``."""
    save_state(random_density(8, 8, 11), directory / "qsr-state.json", dims=[2, 2, 2])
    save_channel(classical_channel([[0.9, 0.1], [0.1, 0.9]]), directory / "bsc.json")
    save_channel(channel([random_density(3, r, 7760 + x) for x, r in enumerate([2, 3, 1])]), directory / "face.json")
    save_state(random_density(8, 3, 12), directory / "qsr-rank3.json", dims=[2, 2, 2])
    save_state(random_density(8, 8, 13), directory / "qsr-full-support.json", dims=[4, 2, 1])
    save_state(random_density(12, 12, 14), directory / "qsr-qutrit.json", dims=[2, 3, 2])


def console_argv(name: str, directory: Path, out: Path) -> list[str]:
    """`CONSOLE`[name] on the files in ``directory``, writing its JSON report to ``out``."""
    argv = [str(directory / arg) if arg.endswith(".json") else arg for arg in CONSOLE[name]]
    return argv + ["--format", "json", "--out", str(out)]


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        save_inputs(Path(tmp))
        for name in CONSOLE:
            if cli.main(console_argv(name, Path(tmp), BASELINES / f"{name}.json")) != cli.EXIT_OK:
                return 1
    out = BASELINES / "verify-all-5-seed7.json"
    return cli.main(["verify", "--suite", "all", "--instances", "5", "--seed", "7", "--format", "json", "--out", str(out)])


if __name__ == "__main__":
    raise SystemExit(main())
