"""``repro lint [PATHS]`` end to end: exit codes and what a report names."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import main
from tests.lint.conftest import FIXTURE_PATHS


def test_exits_nonzero_on_a_tree_with_every_rule_violated(
    violating_tree, capsys
):
    status = main(["lint", str(violating_tree)])
    out = capsys.readouterr().out
    assert status == 1
    for rule_id in [*FIXTURE_PATHS, "SACHA006"]:
        assert rule_id in out, f"{rule_id} missing from the report"


def test_exits_zero_on_the_shipped_tree(capsys):
    import repro

    status = main(["lint", str(Path(repro.__file__).parent)])
    assert status == 0
    assert "clean" in capsys.readouterr().out


def test_missing_path_is_a_usage_error(capsys):
    assert main(["lint", "does/not/exist"]) == 2


@pytest.mark.parametrize(
    "flag",
    [
        "--format",
        "--output",
        "--baseline",
        "--no-baseline",
        "--write-baseline",
        "--select",
        "--list-rules",
        "--program",
        "--stats",
    ],
)
def test_paths_are_the_only_setting(flag, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["lint", flag])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_a_finding_outside_a_repro_root_names_its_file(tmp_path, capsys):
    """Two ``run.py`` files outside any ``repro`` root report under the
    paths they were collected from, not both as ``run.py``."""
    bench = tmp_path / "benchmarks" / "e2e" / "run.py"
    script = tmp_path / "scripts" / "run.py"
    bench.parent.mkdir(parents=True)
    script.parent.mkdir()
    bench.write_text("import threading\n")
    script.write_text("import time\n\nSTARTED = time.time()\n")
    status = main(["lint", str(tmp_path / "benchmarks"), str(tmp_path / "scripts")])
    out = capsys.readouterr().out
    assert status == 1
    assert f"{bench.as_posix()}:1:1: SACHA005 " in out
    assert f"{script.as_posix()}:3:11: SACHA001 " in out
