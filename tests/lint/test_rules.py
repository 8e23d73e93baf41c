"""Per-rule fixture checks: every bad snippet fires, every good one is clean."""

from __future__ import annotations

import pytest

from repro.lint import lint_sources
from tests.lint.conftest import FIXTURE_PATHS, fixture_source

RULE_IDS = sorted(FIXTURE_PATHS)


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_bad_fixture_fires(rule_id, lint_at):
    findings = lint_at(fixture_source(rule_id, "bad"), rule_id)
    hits = [finding for finding in findings if finding.rule == rule_id]
    assert hits, f"{rule_id} did not fire on its known-bad fixture"
    assert all(finding.hint for finding in hits), "every finding carries a hint"


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_good_fixture_is_clean(rule_id, lint_at):
    findings = lint_at(fixture_source(rule_id, "good"), rule_id)
    assert findings == [], [finding.render() for finding in findings]


class TestDeterminismRule:
    def test_counts_every_violation(self, lint_at):
        findings = lint_at(fixture_source("SACHA001", "bad"), "SACHA001")
        # time.time, datetime.now, random.random, random.Random(),
        # np.random.randint, default_rng(), hash()
        assert len(findings) == 7

    def test_wallclock_shim_is_exempt(self):
        source = "import time\n\ndef wall_clock_ns():\n    return time.time_ns()\n"
        assert lint_sources({"repro/obs/wallclock.py": source}) == []
        assert lint_sources({"repro/core/protocol.py": source}) != []


class TestConstantTimeRule:
    def test_only_applies_inside_the_scoped_trees(self, lint_at):
        bad = fixture_source("SACHA002", "bad")
        assert lint_sources({"repro/baselines/fixture.py": bad}) == []
        assert lint_sources({"repro/analysis/fixture.py": bad}) == []

    def test_chained_comparison_is_caught(self):
        source = "def check(a, tag, b):\n    return a == tag == b\n"
        findings = lint_sources({"repro/crypto/fixture.py": source})
        assert len(findings) == 2  # both links of the chain touch the tag

    def test_uppercase_constants_are_dispatch_not_verification(self):
        source = "def f(op, OPCODE_MAC):\n    return op == OPCODE_MAC\n"
        assert lint_sources({"repro/crypto/fixture.py": source}) == []


class TestLayeringRule:
    def test_relative_imports_resolve(self):
        source = "from ..net import channel\n"
        findings = lint_sources({"repro/crypto/fixture.py": source})
        assert any(finding.rule == "SACHA004" for finding in findings)

    def test_sim_must_not_import_threading(self):
        findings = lint_sources({"repro/sim/events.py": "import threading\n"})
        # one rule owns the ban: SACHA005, not a second SACHA004 report
        assert [finding.rule for finding in findings] == ["SACHA005"]

    def test_unknown_layer_is_unrestricted(self):
        source = "from repro.net.channel import Channel\n"
        assert lint_sources({"repro/newpkg/fixture.py": source}) == []


class TestThreadingRule:
    def test_swarm_module_is_not_exempt(self):
        sources = (
            "from concurrent.futures import ThreadPoolExecutor\n",
            "import threading\n",
            "import multiprocessing\n",
        )
        for relpath in ("repro/core/swarm.py", "repro/obs/metrics.py"):
            for source in sources:
                findings = lint_sources({relpath: source})
                assert [finding.rule for finding in findings] == ["SACHA005"]
