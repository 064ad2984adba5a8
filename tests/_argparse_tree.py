"""The satgenus command line as an argparse tree, built from the option table
``cli._COMMANDS``: an independent reading of it that the tests hold the table
parse ``cli._parse_by_table`` against.

The package parsed with this tree until it read every command line off the
table itself; a request the table reads must get the namespace argparse
gives, and a line it refuses must be one argparse refuses too or one of the
spellings the table no longer reads (``tests/test_cli.py``).
"""

import argparse

from satgenus.cli import _COMMANDS, _OUTPUT_OPTIONS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="satgenus")
    top = parser.add_subparsers(dest="command", required=True)
    for command, (command_help, module, leaves) in _COMMANDS.items():
        command_parser = top.add_parser(command, help=command_help)
        if leaves[0][0] is not None:
            sub = command_parser.add_subparsers(dest="subcommand", required=True)
        for name, leaf_help, options in leaves:
            p = command_parser if name is None else sub.add_parser(name, help=leaf_help)
            for flag, kind, required, option_help in options + _OUTPUT_OPTIONS:
                if kind is bool:
                    p.add_argument(flag, action="store_true", help=option_help)
                else:
                    p.add_argument(
                        flag, required=required, help=option_help,
                        type=int if kind is int else None,
                        choices=kind if isinstance(kind, tuple) else None,
                    )
            handler = command if name is None else f"{command}_{name}"
            p.set_defaults(run=(module, handler.replace("-", "_")))
    return parser
