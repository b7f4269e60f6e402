"""README held to the code: every config field, every long CLI flag and
every exit code the package defines is named in README.md."""

import argparse
import dataclasses
import inspect
import re
from pathlib import Path

import pytest

from credit_stack import cli, errors, features, gbdt, ingest, pipeline, synth

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _code_names() -> set:
    """Every identifier inside an inline code span, e.g. each of ``{name, kind}``."""
    return {name for span in re.findall(r"`([^`\n]+)`", README)
            for name in re.findall(r"[A-Za-z_]\w*", span)}


@pytest.mark.parametrize("config_class", [
    gbdt.TrainConfig, features.AggregationSpec, synth.SynthConfig, pipeline.PipelineConfig,
    pipeline.MemberConfig, ingest.ColumnSchema,
], ids=lambda cls: cls.__name__)
def test_readme_names_every_config_field(config_class):
    names = _code_names()
    assert [f.name for f in dataclasses.fields(config_class) if f.name not in names] == []


def _long_flags(parser: argparse.ArgumentParser):
    for action in parser._actions:
        yield from (flag for flag in action.option_strings if flag.startswith("--"))
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _long_flags(sub)


def test_readme_names_every_long_flag():
    flags = set(_long_flags(cli.build_parser()))
    assert {"--version", "--help", "--seed", "--config", "--top-n"} <= flags
    # a whole flag: --out does not count as named by --out-data
    missing = [flag for flag in sorted(flags)
               if not re.search(re.escape(flag) + r"(?![\w-])", README)]
    assert missing == []


def test_readme_exit_code_table_lists_exactly_the_error_codes():
    section = README.split("## Exit codes", 1)[1].split("\n## ", 1)[0]
    listed = [int(code) for code in re.findall(r"^\| (\d+) \|", section, re.MULTILINE)]
    classes = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
               if issubclass(cls, errors.CreditStackError)]
    assert len(classes) >= 5
    assert sorted(listed) == sorted({0} | {cls.exit_code for cls in classes})
