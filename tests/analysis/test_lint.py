"""Custom lint rules: each fires in scope, stays quiet out of scope.

``lint_source`` takes the would-be path alongside the source, so every
rule's scoping is testable without touching the working tree.
"""

import os
import textwrap

import pytest

from repro.analysis.lint import (
    RULES,
    Finding,
    lint_source,
    main,
    run_lint,
)

KERNEL_PATH = "src/repro/bdd/operations.py"
SCHEDULER_PATH = "src/repro/harness/scheduler.py"
HARNESS_PATH = "src/repro/harness/runner.py"
NEUTRAL_PATH = "src/repro/reach/common.py"


def rules_in(source, path):
    return [f.rule for f in lint_source(textwrap.dedent(source), path)]


# ----------------------------------------------------------------------
# R001 — recursive apply-style kernels
# ----------------------------------------------------------------------


class TestR001:
    RECURSIVE = """
        def apply_and(m, f, g):
            if f < 2:
                return g
            return apply_and(m, m._lo[f], g)
    """

    def test_flags_self_recursion_in_kernel_module(self):
        assert rules_in(self.RECURSIVE, KERNEL_PATH) == ["R001"]

    def test_quiet_outside_kernel_modules(self):
        assert rules_in(self.RECURSIVE, NEUTRAL_PATH) == []
        assert rules_in(self.RECURSIVE, "src/repro/bdd/__init__.py") == []

    def test_flags_self_method_recursion(self):
        source = """
            class Walker:
                def walk(self, node):
                    return self.walk(node - 1)
        """
        assert rules_in(source, KERNEL_PATH) == ["R001"]

    def test_iterative_kernel_is_clean(self):
        source = """
            def apply_and(m, f, g):
                stack = [(f, g)]
                while stack:
                    stack.pop()
                return 0
        """
        assert rules_in(source, KERNEL_PATH) == []

    def test_calling_a_different_function_is_clean(self):
        source = """
            def helper(x):
                return x

            def apply_and(m, f):
                return helper(f)
        """
        assert rules_in(source, KERNEL_PATH) == []


# ----------------------------------------------------------------------
# R002 — nondeterminism in byte-identical output paths
# ----------------------------------------------------------------------


class TestR002:
    @pytest.mark.parametrize(
        "source",
        [
            "import random\n",
            "from random import shuffle\n",
            "import time\n\ndef stamp():\n    return time.time()\n",
            "import os\n\ndef newest(d):\n    return os.listdir(d)\n",
            "import glob\n\ndef grab(d):\n    return glob.glob(d)\n",
            "import os\n\ndef age(p):\n    return os.path.getmtime(p)\n",
            "def walk(s):\n    for x in {1, 2, 3}:\n        print(x)\n",
            "def walk(s):\n    return [x for x in set(s)]\n",
        ],
        ids=[
            "import-random",
            "from-random",
            "wall-clock",
            "listdir",
            "glob",
            "mtime",
            "for-over-set",
            "comprehension-over-set",
        ],
    )
    def test_flags_each_source_kind(self, source):
        assert rules_in(source, SCHEDULER_PATH) == ["R002"]

    def test_sorted_listing_is_clean(self):
        source = "import os\n\ndef newest(d):\n    return sorted(os.listdir(d))\n"
        assert rules_in(source, SCHEDULER_PATH) == []

    def test_monotonic_clock_is_clean(self):
        source = "import time\n\ndef tick():\n    return time.monotonic()\n"
        assert rules_in(source, SCHEDULER_PATH) == []

    def test_quiet_outside_deterministic_paths(self):
        assert rules_in("import random\n", NEUTRAL_PATH) == []

    def test_all_deterministic_modules_in_scope(self):
        for suffix in (
            "repro/harness/journal.py",
            "repro/harness/checkpoint.py",
            "repro/harness/faults.py",
            "repro/obs/report.py",
        ):
            assert rules_in("import random\n", "src/" + suffix) == ["R002"]


# ----------------------------------------------------------------------
# R003 — node handles held across collect_garbage
# ----------------------------------------------------------------------


class TestR003:
    def test_flags_handle_used_after_unprotecting_gc(self):
        source = """
            def step(bdd, a, b):
                frontier = bdd.and_(a, b)
                bdd.collect_garbage([a])
                return bdd.not_(frontier)
        """
        assert rules_in(source, NEUTRAL_PATH) == ["R003"]

    def test_rooted_handle_is_clean(self):
        source = """
            def step(bdd, a, b):
                frontier = bdd.and_(a, b)
                bdd.collect_garbage([a, frontier])
                return bdd.not_(frontier)
        """
        assert rules_in(source, NEUTRAL_PATH) == []

    def test_increfed_handle_is_clean(self):
        source = """
            def step(bdd, a, b):
                frontier = bdd.and_(a, b)
                bdd.incref(frontier)
                bdd.collect_garbage([a])
                return bdd.not_(frontier)
        """
        assert rules_in(source, NEUTRAL_PATH) == []

    def test_rebound_handle_is_clean(self):
        source = """
            def step(bdd, a, b):
                frontier = bdd.and_(a, b)
                bdd.collect_garbage([a])
                frontier = bdd.and_(a, a)
                return bdd.not_(frontier)
        """
        assert rules_in(source, NEUTRAL_PATH) == []

    def test_quiet_without_gc_call(self):
        source = """
            def step(bdd, a, b):
                frontier = bdd.and_(a, b)
                return bdd.not_(frontier)
        """
        assert rules_in(source, NEUTRAL_PATH) == []


# ----------------------------------------------------------------------
# R004 — bare except in the harness
# ----------------------------------------------------------------------


class TestR004:
    BARE = """
        def attempt():
            try:
                return 1
            except:
                return None
    """

    def test_flags_bare_except_in_harness(self):
        assert rules_in(self.BARE, HARNESS_PATH) == ["R004"]

    def test_typed_except_is_clean(self):
        source = """
            def attempt():
                try:
                    return 1
                except Exception:
                    return None
        """
        assert rules_in(source, HARNESS_PATH) == []

    def test_quiet_outside_harness(self):
        assert rules_in(self.BARE, NEUTRAL_PATH) == []


# ----------------------------------------------------------------------
# R005 — one fix-point loop owner
# ----------------------------------------------------------------------

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")


class TestR005:
    SOURCE = open(os.path.join(FIXTURES, "hand_rolled_loop.py")).read()

    def seeded_lines(self):
        return [
            lineno
            for lineno, line in enumerate(self.SOURCE.splitlines(), 1)
            if line.rstrip().endswith("# defect: R005")
        ]

    @pytest.mark.parametrize(
        "path",
        ["src/repro/reach/tr_engine.py", "src/repro/backends/engine.py"],
    )
    def test_flags_every_seeded_defect(self, path):
        findings = lint_source(self.SOURCE, path)
        assert [f.rule for f in findings] == ["R005"] * len(findings)
        assert [f.line for f in findings] == self.seeded_lines()

    def test_driver_may_own_the_loop(self):
        assert lint_source(self.SOURCE, "src/repro/reach/driver.py") == []

    def test_quiet_outside_reach_and_backends(self):
        assert lint_source(self.SOURCE, "src/repro/mc/checker.py") == []


# ----------------------------------------------------------------------
# Suppression, rendering, driver
# ----------------------------------------------------------------------


class TestSuppression:
    def test_bare_noqa_disarms_all(self):
        source = "import random  # noqa\n"
        assert rules_in(source, SCHEDULER_PATH) == []

    def test_targeted_noqa_disarms_named_rule(self):
        source = "import random  # noqa: R002\n"
        assert rules_in(source, SCHEDULER_PATH) == []

    def test_wrong_code_does_not_disarm(self):
        source = "import random  # noqa: R004\n"
        assert rules_in(source, SCHEDULER_PATH) == ["R002"]

    def test_noqa_is_line_scoped(self):
        source = "import random  # noqa: R002\nimport random\n"
        findings = lint_source(source, SCHEDULER_PATH)
        assert [(f.rule, f.line) for f in findings] == [("R002", 2)]


class TestDriver:
    def test_syntax_error_is_r000(self):
        findings = lint_source("def broken(:\n", NEUTRAL_PATH)
        assert [f.rule for f in findings] == ["R000"]

    def test_finding_render_format(self):
        finding = Finding("a.py", 7, "R002", "msg")
        assert finding.render() == "a.py:7: R002 msg"

    def test_rule_catalog_is_complete(self):
        assert sorted(RULES) == ["R001", "R002", "R003", "R004", "R005"]

    def test_repo_is_lint_clean(self):
        assert run_lint(()) == []

    def test_main_lists_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in RULES:
            assert rule in out

    def test_main_reports_findings_with_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "harness" / "oops.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("try:\n    pass\nexcept:\n    pass\n")
        assert main([str(bad)]) == 1
        assert "R004" in capsys.readouterr().out

    def test_main_clean_file_exits_zero(self, tmp_path, capsys):
        good = tmp_path / "fine.py"
        good.write_text("VALUE = 1\n")
        assert main([str(good)]) == 0
        assert capsys.readouterr().out == ""


# ----------------------------------------------------------------------
# R002 scope extension: backends/ + serve/cache.py
# ----------------------------------------------------------------------


class TestR002ScopeExtension:
    def test_backends_dir_in_scope(self):
        assert rules_in(
            "import random\n", "src/repro/backends/bitset.py"
        ) == ["R002"]
        assert rules_in(
            "import random\n", "src/repro/backends/zonotope.py"
        ) == ["R002"]

    def test_serve_cache_in_scope(self):
        assert rules_in(
            "import random\n", "src/repro/serve/cache.py"
        ) == ["R002"]

    def test_other_serve_modules_stay_out_of_scope(self):
        assert rules_in("import random\n", "src/repro/serve/server.py") == []


# ----------------------------------------------------------------------
# Decorator findings attach to the suppressible def line
# ----------------------------------------------------------------------


class TestDecoratorNoqa:
    DECORATED = """
        import time


        @retry(deadline=time.time() + 5)
        def act():  # noqa: R002
            return 1
    """

    def test_finding_attributed_to_def_line(self):
        source = textwrap.dedent(self.DECORATED).replace(
            "  # noqa: R002", ""
        )
        findings = lint_source(source, SCHEDULER_PATH)
        assert [(f.rule, f.line) for f in findings] == [("R002", 6)]

    def test_noqa_on_def_line_disarms_decorator_finding(self):
        assert rules_in(self.DECORATED, SCHEDULER_PATH) == []

    def test_noqa_on_undecorated_line_still_line_scoped(self):
        source = """
            import time


            def act():  # noqa: R002
                return time.time()
        """
        # The finding is on the body line, not the def line: stays armed.
        assert rules_in(source, SCHEDULER_PATH) == ["R002"]
