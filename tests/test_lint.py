"""The consolidated lint gauntlet: discovery is complete and all lints pass.

Tier-1 runs every repo lint through ``scripts/lint.py`` — one test enumerates
the ``check_*.py`` scripts against the runner's discovery (a new lint script
cannot silently escape CI), one runs the whole gauntlet, and the rest pin the
experiment-registry lint's failure modes.
"""

import importlib.util
import pathlib

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPTS_DIR = REPO_ROOT / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_runner_discovers_every_check_script():
    lint = load_script("lint")
    on_disk = sorted(p.stem for p in SCRIPTS_DIR.glob("check_*.py"))
    assert lint.lint_names() == on_disk
    assert on_disk, "no lint scripts found — glob broke"


def test_every_lint_exposes_check():
    lint = load_script("lint")
    for name in lint.lint_names():
        module = lint.load_lint(name)
        assert callable(getattr(module, "check", None)), (
            f"scripts/{name}.py must expose check() -> list[str] "
            "for the consolidated gauntlet"
        )


def test_gauntlet_is_clean():
    lint = load_script("lint")
    results = lint.run_all()
    problems = [f"{name}: {p}" for name, ps in results.items() for p in ps]
    assert problems == [], "\n".join(problems)


def test_registry_lint_matches_live_registry():
    from repro.orchestrate import registry

    checker = load_script("check_experiment_registry")
    documented = checker.documented_names()
    assert sorted(documented) == sorted(registry())


def test_registry_lint_flags_undocumented_and_stale_names():
    checker = load_script("check_experiment_registry")
    # An index table missing a real experiment and naming a bogus one.
    fake_md = (
        "# EXPERIMENTS\n\n## Experiment index\n\n"
        "| experiment | title |\n|---|---|\n"
        "| `fig7` | Figure 7 |\n"
        "| `bogus_experiment` | nope |\n"
    )
    problems = checker.check(experiments_md=fake_md)
    assert any("'bogus_experiment'" in p and "no such experiment" in p
               for p in problems)
    assert any("missing from" in p for p in problems)


def test_registry_lint_flags_duplicate_index_rows():
    checker = load_script("check_experiment_registry")
    fake_md = (
        "## Experiment index\n\n"
        "| `fig7` | a |\n| `fig7` | b |\n"
    )
    problems = checker.check(experiments_md=fake_md)
    assert any("2 times" in p for p in problems)


def test_registry_lint_flags_missing_index_section():
    checker = load_script("check_experiment_registry")
    problems = checker.check(experiments_md="# EXPERIMENTS\n\nno table here\n")
    assert len(problems) == 1
    assert "Experiment index" in problems[0]


def test_registry_lint_flags_a_figure_module_that_registers_nothing(
        tmp_path, monkeypatch):
    checker = load_script("check_experiment_registry")
    assert checker.check() == []
    figures = tmp_path / "experiments"
    figures.mkdir()
    for path in checker.FIGURES_DIR.glob("*.py"):
        (figures / path.name).write_text("")
    (figures / "fig99_unregistered.py").write_text('"""No @register."""\n')
    monkeypatch.setattr(checker, "FIGURES_DIR", figures)
    problems = checker.check()
    assert len(problems) == 1
    assert "'fig99_unregistered' registers 0 experiments" in problems[0]
