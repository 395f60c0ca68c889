"""The README's library quickstart runs and prints what it claims, its CLI
paragraphs name what the code uses, and the package namespace is the surface
the README documents."""

import ast
import contextlib
import io
import re
from pathlib import Path

import hybeam
from hybeam import cli, experiments

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_quickstart_rf_rate_matches_its_closed_form():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library quickstart\n\n```python\n(.*?)```", text, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    printed = out.getvalue()
    simulated, predicted = map(
        float, re.search(r"RF-only sum rate: simulated (\S+) vs asymptotic (\S+)", printed).groups()
    )
    assert abs(simulated - predicted) <= 0.05 * predicted
    hybrid = float(re.search(r"RF \+ ZF rate: (\S+) bit/s/Hz", printed).group(1))
    assert hybrid > simulated


def test_run_key_table_is_the_parsers_table():
    # each key once, with its alias and its run flag, as cli._KEYS has them
    text = README.read_text(encoding="utf-8")
    table = re.search(r"### Run keys\n.*?\n(\| Key .*?)\n\n", text, re.S).group(1)
    documented = {}
    for line in table.splitlines()[2:]:
        key, alias, flag = (cell.strip().strip("`") for cell in line.strip("|").split("|")[:3])
        assert key not in documented, key
        documented[key] = (alias, tuple(flag.split("/")) if flag else ())
    expected = {
        key: ("".join(f[2:] for f in spec.flags if f[2:] != key), spec.flags)
        for key, spec in cli._KEYS.items()
    }
    assert documented == expected
    assert list(documented) == list(cli._KEYS)


def test_validate_sentence_names_the_validated_rows():
    text = README.read_text(encoding="utf-8")
    sentence = re.search(r"`--validate` checks(.*?)\.\s", text, re.S).group(1)
    schemes = set(re.findall(r"`([^`]+)`", sentence))
    sizes = tuple(map(int, re.findall(r"\d+", re.sub(r"`[^`]*`", "", sentence))))
    assert schemes == set(experiments.VALIDATED_SCHEMES)
    assert sizes == experiments.VALIDATED_SWEEP


def test_determinism_paragraph_names_the_chunk():
    text = README.read_text(encoding="utf-8")
    match = re.search(r"fixed chunks of (\d+) consecutive indices\s+\(realization `i` is in chunk `i // (\d+)`\)", text)
    assert int(match.group(1)) == int(match.group(2)) == experiments.CHUNK


def _imported_from_hybeam(text):
    """Names of every ``from hybeam import ...`` statement, parenthesized or not."""
    names = set()
    for group, line in re.findall(r"from hybeam import (?:\(([^)]*)\)|([^\n(]+))", text):
        names.update(name.strip() for name in (group or line).split(",") if name.strip())
    return names


def _defined_in_package():
    """Public names bound at the top level of the package's modules."""
    names = set()
    for path in (ROOT / "src" / "hybeam").glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Assign):
                names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("_")}


def test_namespace_is_the_documented_surface():
    # the README's package names, the names the acceptance checks import from
    # the namespace, and draw_realization, which perfbench/check.py imports
    text = README.read_text(encoding="utf-8")
    spans = (re.match(r"[A-Za-z_]\w*", span) for span in re.findall(r"`([^`\n]+)`", text))
    backticked = {match.group() for match in spans if match}
    readme = _imported_from_hybeam(text) | (backticked & _defined_in_package())
    acceptance = _imported_from_hybeam((ROOT / "tests" / "test_acceptance.py").read_text())
    expected = readme | acceptance | {"draw_realization"}
    assert set(hybeam.__all__) == expected
    assert len(hybeam.__all__) == len(expected)
    for name in expected:
        assert getattr(hybeam, name) is not None, name
