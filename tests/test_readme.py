"""The README's library example runs against the current API."""

import os
import re

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")


def test_readme_python_example_runs(capsys):
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"^```python\n(.*?)^```$", fh.read(), flags=re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {"__name__": "readme_example"})
    printed = capsys.readouterr().out.splitlines()
    # the budget line, then the mean interval width
    assert len(printed) == 2
    assert float(printed[-1]) > 0.0


def _default_text(kind: str, value) -> str | None:
    """A table default as the config reference writes it."""
    if value is None:
        return None
    if kind == "float_pairs":
        return ", ".join(f"{a!r}:{b!r}" for a, b in value)
    if kind.endswith("_list"):
        return ", ".join(_default_text(kind[: -len("_list")], v) for v in value)
    if kind == "bool":
        return str(value).lower()
    return repr(value) if kind == "float" else str(value)


def test_readme_config_reference_matches_the_key_tables():
    from dpckpt.harness.experiments import KEY_TABLES

    expected: dict[str, dict[str, str | None]] = {}
    for task, keys in KEY_TABLES.items():
        for key in keys:
            expected.setdefault(key.name, {})[task] = _default_text(key.kind, key.default)

    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("### Config reference", 1)[1].split("\n#", 1)[0]
    documented: dict[str, dict[str, str | None]] = {}
    for line in section.splitlines():
        if not line.startswith("| `"):
            continue
        key, tasks, defaults, _rule = [cell.strip() for cell in line.strip("|").split(" | ")]
        if tasks == "all":
            names = list(KEY_TABLES)
        elif tasks == "all but dpld_bias":
            names = [t for t in KEY_TABLES if t != "dpld_bias"]
        else:
            names = tasks.split(", ")
        per_task: dict[str, str | None] = {}
        for part in defaults.split("; "):
            m = re.fullmatch(r"(?:`([^`]*)`|unset)(?: \((.*)\))?", part)
            assert m, part
            for task in m.group(2).split(", ") if m.group(2) else names:
                per_task[task] = m.group(1)
        assert sorted(per_task) == sorted(names), key
        documented[key.strip("`")] = per_task
    assert documented == expected
