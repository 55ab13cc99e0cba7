import pathlib
import pkgutil
import re
from itertools import takewhile

import agemon
import agemon.sim as sim
from agemon import SimParams, write_csv
from conftest import CSV_COLUMNS, DEFAULTS

# the whole public surface; a name added to or dropped from agemon.__all__
# must be added to or dropped from this list too
PUBLIC_NAMES = [
    "EVENT_CAP",
    "EmptyTimelineError",
    "ParameterError",
    "PeriodTable",
    "SimParams",
    "SimulationLimitError",
    "SweepSpec",
    "aoi_mm1",
    "error_rate_closed_form",
    "failure_prior",
    "map_threshold",
    "mean_aoi_closed_form",
    "monte_carlo_cross_check",
    "region_means_closed_form",
    "render_svg",
    "run_sweep",
    "simulate_table",
    "summarize",
    "write_csv",
]


def test_public_names_pinned():
    assert len(PUBLIC_NAMES) == 19
    assert sorted(agemon.__all__) == PUBLIC_NAMES
    assert all(hasattr(agemon, name) for name in PUBLIC_NAMES)


def readme_text() -> str:
    return (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")


def readme_layout() -> list[str]:
    """The rows of README's Library layout table."""
    lines = readme_text().splitlines()
    start = lines.index("| module | contents |")
    return list(takewhile(lambda line: line.startswith("|"), lines[start + 2:]))


def test_readme_layout_names_every_module():
    # README's Library layout table has one row per module of the package,
    # so a deleted module cannot leave a stale row nor a new one go unlisted
    rows = [line.strip("|").split("|")[0].strip().strip("`") for line in readme_layout()]
    modules = sorted(f"agemon.{info.name}" for info in pkgutil.iter_modules(agemon.__path__))
    assert sorted(rows) == modules
    assert len(rows) == len(set(rows))


def test_readme_layout_names_every_public_name():
    # and it names, as code, every name of agemon.__all__, so a change to
    # the public surface cannot leave the table stale
    table = "\n".join(readme_layout())
    assert [name for name in agemon.__all__ if not re.search(rf"`{name}\b", table)] == []


def test_readme_and_csv_comment_name_the_stream_contract(tmp_path):
    # README's contract paragraph and the comment line of every CSV state
    # the version in force, so a bump of sim.STREAM_CONTRACT cannot leave
    # either stale
    version = sim.STREAM_CONTRACT
    paragraph = readme_text().split("Reproducibility contract, version ", 1)[1].split("\n\n", 1)[0]
    assert paragraph.startswith(f"{version} (`sim.STREAM_CONTRACT`;")
    assert f"`contract={version}`" in paragraph
    row = dict.fromkeys(CSV_COLUMNS) | dict(swept_var="rho", swept_value=0.5, seed=1)
    path = write_csv([row], tmp_path / "out.csv", SimParams(**DEFAULTS, periods=10))
    comment = path.read_text(encoding="utf-8").splitlines()[0]
    assert comment.startswith("# ") and comment.split()[-1] == f"contract={version}"
