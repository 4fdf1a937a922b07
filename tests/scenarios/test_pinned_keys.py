"""Pin the adopted constraint keys of every registry scenario (smoke size).

Discovery's adoption decisions depend on the fitted maxent model, so a
change to a solver's iteration can flip a borderline MML decision without
failing any gate.  The fixture records, for every registered scenario, the
keys a serial run with ``DiscoveryConfig(max_order=scenario.max_order)``
adopts, in discovery order; this test asserts the current code adopts the
same keys in the same order.

Regenerate the fixture (only when a change is *meant* to move decisions)::

    PYTHONPATH=src python tests/scenarios/test_pinned_keys.py
"""

import json
from pathlib import Path

import pytest

from repro.discovery import DiscoveryConfig, DiscoveryEngine
from repro.maxent.constraints import cellkey_to_dict
from repro.scenarios import all_scenarios, get_scenario, scenario_names

FIXTURE = Path(__file__).with_name("pinned_adopted_keys_smoke.json")


def adopted_keys(scenario) -> list[dict]:
    """Adopted keys of one smoke-size scenario run, in discovery order."""
    table = scenario.build(smoke=True).table
    with DiscoveryEngine(DiscoveryConfig(max_order=scenario.max_order)) as engine:
        result = engine.run(table)
    return [cellkey_to_dict(cell.key) for cell in result.found]


def _pinned() -> dict[str, list[dict]]:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_scenario():
    assert set(_pinned()) == {s.name for s in all_scenarios("all")}


@pytest.mark.parametrize("name", scenario_names("all"))
def test_adopted_keys_match_fixture(name):
    assert adopted_keys(get_scenario(name)) == _pinned()[name]


if __name__ == "__main__":
    pinned = {s.name: adopted_keys(s) for s in all_scenarios("all")}
    FIXTURE.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(pinned)} scenarios to {FIXTURE}")
