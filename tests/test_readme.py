"""The README's library quickstart runs and prints what it claims."""

import contextlib
import io
import re
from pathlib import Path

from hybeam import cli

README = Path(__file__).resolve().parents[1] / "README.md"


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


def test_config_keys_match_the_parser():
    text = README.read_text(encoding="utf-8")
    paragraph = re.search(r"Config files are INI;(.*?)\n\n", text, re.S).group(1)
    keys = {
        key.lower()
        for token in re.findall(r"`([^`]+)`", paragraph)
        for key in token.split("=")[0].strip().split("/")
    }
    assert keys == cli._CONFIG_KEYS | set(cli._KEY_ALIASES)
