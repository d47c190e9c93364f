"""Tests for per-runner source fingerprints (campaign cache keys)."""

import importlib
import sys
import textwrap

import pytest

from repro.experiments import fingerprint
from repro.experiments.campaign import CELL_RUNNERS, cell_key
from repro.experiments.fingerprint import (
    clear_fingerprint_cache,
    module_source_closure,
    runner_fingerprint,
    source_fingerprint,
)


@pytest.fixture(autouse=True)
def fresh_fingerprints():
    clear_fingerprint_cache()
    yield
    clear_fingerprint_cache()


def _forget_fpdemo():
    # find_spec imports parent packages; drop any stale fpdemo from a
    # previous test's tmp_path so module resolution starts fresh.
    for name in [m for m in sys.modules if m == "fpdemo" or m.startswith("fpdemo.")]:
        del sys.modules[name]


@pytest.fixture
def demo_package(tmp_path, monkeypatch):
    """A throwaway package with a runner module we can edit on disk."""
    _forget_fpdemo()
    pkg = tmp_path / "fpdemo"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "runner.py").write_text(
        textwrap.dedent(
            """
            from repro.experiments.backends.events import CellTask

            def cell(x=0):
                return {"x": x}
            """
        )
    )
    (pkg / "unrelated.py").write_text("UNUSED = 1\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    importlib.invalidate_caches()
    yield pkg
    _forget_fpdemo()
    importlib.invalidate_caches()


class TestClosure:
    def test_contains_the_module_itself_and_its_repro_imports(self):
        closure = module_source_closure("repro.experiments.comparison")
        assert "repro.experiments.comparison" in closure
        # `from repro.experiments.runner import ExperimentRunner` pulls the
        # runner module (not the attribute) into the closure.
        assert "repro.experiments.runner" in closure
        assert "repro.experiments.scenarios" in closure
        assert all(len(digest) == 64 for digest in closure.values())

    def test_execution_engine_modules_stay_out_of_runner_closures(self):
        """Engine edits must not cold-start every cache: campaign.py,
        fingerprint.py and the backends package are orchestration, not cell
        behaviour (contract changes bump CACHE_SCHEMA_VERSION instead)."""
        closure = module_source_closure("repro.experiments.table2")
        assert "repro.experiments.campaign" not in closure
        assert "repro.experiments.fingerprint" not in closure
        assert not any(
            name.startswith("repro.experiments.backends") for name in closure
        )

    def test_version_module_is_always_excluded(self):
        # campaign.py imports repro.version, so without the exclusion a
        # version bump would invalidate every cache entry again.
        closure = module_source_closure("repro.experiments.campaign")
        assert "repro.version" not in closure

    def test_unrelated_repro_modules_stay_out(self):
        closure = module_source_closure("repro.experiments.ablations")
        assert "repro.cli" not in closure

    def test_non_repro_imports_are_not_followed(self):
        closure = module_source_closure("repro.experiments.campaign")
        assert all(name.startswith("repro") for name in closure)

    def test_ancestor_package_inits_are_hashed_into_the_closure(self):
        """Importing repro.experiments.table2 executes repro/__init__ and
        repro/experiments/__init__, so both must be fingerprinted."""
        closure = module_source_closure("repro.experiments.table2")
        assert "repro" in closure
        assert "repro.experiments" in closure
        assert len(closure["repro"]) == 64

    def test_ancestor_init_imports_are_not_recursed(self):
        """Hub __init__ re-exports must not drag every harness into every
        closure: repro.experiments/__init__ imports the privacy harness,
        but the ablations runner never does."""
        closure = module_source_closure("repro.experiments.ablations")
        assert "repro.experiments" in closure
        assert "repro.experiments.privacy" not in closure

    def test_excluded_engine_packages_stay_out_even_as_ancestors(self):
        closure = module_source_closure("repro.experiments.table2")
        assert not any(
            name.startswith("repro.experiments.backends") for name in closure
        )


class TestFingerprint:
    def test_stable_across_calls(self):
        dotted = CELL_RUNNERS["ablation-allreduce"]
        assert runner_fingerprint(dotted) == runner_fingerprint(dotted)

    def test_differs_between_runner_modules(self):
        assert runner_fingerprint(CELL_RUNNERS["table2-cell"]) != runner_fingerprint(
            CELL_RUNNERS["fig1-timeline"]
        )

    def test_version_bump_changes_nothing(self, monkeypatch):
        """Bumping the package version must leave cache keys untouched."""
        params = {"num_agents": 4}
        before = cell_key("ablation-allreduce", params)
        import repro.version

        monkeypatch.setattr(repro.version, "__version__", "999.0.0")
        clear_fingerprint_cache()
        assert cell_key("ablation-allreduce", params) == before

    def test_editing_the_runner_module_changes_the_fingerprint(self, demo_package):
        first = source_fingerprint("fpdemo.runner")
        (demo_package / "runner.py").write_text(
            (demo_package / "runner.py").read_text() + "\n# edited\n"
        )
        clear_fingerprint_cache()
        importlib.invalidate_caches()
        assert source_fingerprint("fpdemo.runner") != first

    def test_editing_a_package_init_changes_the_fingerprint(
        self, demo_package, monkeypatch
    ):
        """A behaviour-changing package __init__ edit must invalidate the
        caches of runners inside that package (ROADMAP blind spot)."""
        monkeypatch.setattr(fingerprint, "ROOT_PACKAGE", "fpdemo")
        first = source_fingerprint("fpdemo.runner")
        assert "fpdemo" in module_source_closure("fpdemo.runner")
        (demo_package / "__init__.py").write_text("SIDE_EFFECT = True\n")
        clear_fingerprint_cache()
        importlib.invalidate_caches()
        assert source_fingerprint("fpdemo.runner") != first

    def test_editing_an_unrelated_module_keeps_the_fingerprint(self, demo_package):
        first = source_fingerprint("fpdemo.runner")
        (demo_package / "unrelated.py").write_text("UNUSED = 2  # edited\n")
        clear_fingerprint_cache()
        importlib.invalidate_caches()
        assert source_fingerprint("fpdemo.runner") == first

    def test_cell_key_tracks_runner_source(self, demo_package, monkeypatch):
        monkeypatch.setitem(CELL_RUNNERS, "fp-test", "fpdemo.runner:cell")
        before = cell_key("fp-test", {"x": 1})
        assert before != cell_key("fp-test", {"x": 2})
        (demo_package / "runner.py").write_text(
            (demo_package / "runner.py").read_text() + "\n# new behaviour\n"
        )
        clear_fingerprint_cache()
        importlib.invalidate_caches()
        assert cell_key("fp-test", {"x": 1}) != before

    def test_unregistered_runner_still_gets_a_key(self):
        assert len(cell_key("not-registered", {"a": 1})) == 64

    def test_missing_module_uses_version_sentinel(self):
        closure = module_source_closure("repro.no_such_module_anywhere")
        assert closure["repro.no_such_module_anywhere"].startswith("unavailable:")

    def test_fingerprint_memoised_per_dotted_path(self, monkeypatch):
        calls = []
        original = fingerprint.source_fingerprint

        def counting(module_name):
            calls.append(module_name)
            return original(module_name)

        monkeypatch.setattr(fingerprint, "source_fingerprint", counting)
        dotted = CELL_RUNNERS["demo-cell"]
        runner_fingerprint(dotted)
        runner_fingerprint(dotted)
        assert len(calls) == 1
