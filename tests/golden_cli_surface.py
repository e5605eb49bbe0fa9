"""Golden fixture for the ``predict-bench`` command-line surface.

The parser is what users and scripts type against: every subcommand's
options, their destinations, defaults, arity, choices, value types and
whether they are required.  Refactoring how the flags are *declared*
(shared flag groups instead of one ``add_argument`` per subcommand)
must not move any of that, so this module pins it:

* for the top-level parser and every subparser, one record per action
  (the ``-h`` action included), keyed by its ``dest`` — declaration
  order is not pinned, so ``--help`` may list a shared group together;
* help text is not pinned — it may be reworded — but every subparser's
  help must still render (see ``tests/test_bench_cli.py``).

``tests/golden/cli_surface_v1.json`` was written at the commit *before*
the flag groups existed and must not be regenerated to paper over a
diff: a diff means an option was added, removed or changed.  The entry
point::

    PYTHONPATH=src python -m tests.golden_cli_surface
"""

from __future__ import annotations

import argparse
import json
import os
from typing import Any

from repro.bench.cli import build_parser

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "cli_surface_v1.json")


def subparsers(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    """Subcommand name → its parser."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return dict(action.choices)
    return {}


def action_record(action: argparse.Action) -> dict[str, Any]:
    """What the golden file lists per action."""
    choices = action.choices
    if isinstance(choices, dict):  # the subcommand action: its names
        choices = sorted(choices)
    elif choices is not None:
        choices = list(choices)
    return {
        "option_strings": list(action.option_strings),
        "dest": action.dest,
        "default": action.default,
        "nargs": action.nargs,
        "choices": choices,
        "type": None if action.type is None else action.type.__name__,
        "required": action.required,
    }


def current() -> dict[str, Any]:
    """The live parser's surface, keyed by command (``""`` = top level)."""
    parser = build_parser()
    surface = {"": {a.dest: action_record(a) for a in parser._actions}}
    for name, sub in subparsers(parser).items():
        surface[name] = {a.dest: action_record(a) for a in sub._actions}
    return surface


def load() -> dict[str, Any]:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def regen() -> str:
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(current(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    return GOLDEN_PATH


if __name__ == "__main__":
    print(regen())
