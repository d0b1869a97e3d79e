"""The same-outputs tool's command table covers the CLI it digests."""

import importlib.util
from pathlib import Path

from infercarbon import cli
from infercarbon.roofline import builtin_gpu_catalog

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("same_outputs", ROOT / "tools" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(same_outputs)


def test_the_table_helps_every_subcommand_and_spans_both_catalogs():
    subcommands = cli.build_parser()._subparsers._group_actions[0].choices
    assert set(same_outputs.SUBCOMMANDS) == set(subcommands)
    assert set(same_outputs.GPUS) == set(builtin_gpu_catalog())
    assert set(same_outputs.ARCHS) == set(cli.load_archs(None))
    table = same_outputs.command_table()
    assert {f"{sub} --help" for sub in subcommands} <= set(table)
    assert sum(name.startswith("error: ") for name in table) >= 3


def test_a_command_digests_alike_from_any_directory():
    chain = [["graph", "tiny-flash", "--n-gpu", "2", "--format", "json"]]
    first = same_outputs.run_chain(ROOT, "graph", chain)
    assert list(first) == ["graph"]
    assert same_outputs.run_chain(ROOT, "graph", chain) == first
