"""No planned cell key moves: every registered experiment re-plans the keys
recorded in ``planned_keys.json`` (``scripts/check_planned_keys.py``).

Regenerate after a deliberate key change with
``PYTHONPATH=src python scripts/check_planned_keys.py --write``.
"""

import importlib.util
import pathlib

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
SCRIPT = REPO_ROOT / "scripts" / "check_planned_keys.py"


def load_checker():
    spec = importlib.util.spec_from_file_location("check_planned_keys", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_experiment_plans_the_recorded_keys():
    problems = load_checker().check()
    assert problems == [], "\n".join(problems) + (
        "\n\nRegenerate with: PYTHONPATH=src python scripts/check_planned_keys.py --write"
    )
