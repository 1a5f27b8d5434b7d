"""The README's config example and library names match the package."""

import json
import re
from dataclasses import replace
from importlib import import_module
from pathlib import Path

from dubinsim.scenario import ScenarioConfig

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def section(title):
    start = README.index(f"## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start:] if end < 0 else README[start:end]


def test_config_example_is_the_default_config():
    block = re.search(r"```json\n(.*?)```", section("Scenario configuration"), re.S)
    cfg = ScenarioConfig.from_dict(json.loads(block.group(1)))
    assert len(cfg.obstacles) == 1  # the example entry; the default list is empty
    assert replace(cfg, obstacles=()).to_dict() == ScenarioConfig().to_dict()


def test_library_use_names_are_importable():
    text = section("Library use")
    imports = re.findall(r"^from (dubinsim[\w.]*) import (.+)$", text, re.M)
    code = re.sub(r"```.*?```", "", text, flags=re.S)
    root_names = re.findall(r"`(\w+)`", code)
    assert root_names
    checks = [(mod, name.strip()) for mod, names in imports for name in names.split(",")]
    checks += [("dubinsim", name) for name in root_names]
    missing = [f"{mod}.{name}" for mod, name in checks
               if not hasattr(import_module(mod), name)]
    assert missing == []
    # and the package root exports exactly those names
    assert set(import_module("dubinsim").__all__) == {n for mod, n in checks if mod == "dubinsim"}
